/**
 * @file
 * Regression tests for the command-line and environment input
 * boundaries: negative numeric values must bind as option values (not
 * become flags), unknown option names, stray positional arguments and
 * malformed numeric input must be one usage error instead of silently
 * falling back to a default, and the bench binaries' QZ_BENCH_SCALE/
 * QZ_BENCH_THREADS knobs must be parsed as strictly.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "../tools/cli_common.hpp"

namespace quetzal::cli {
namespace {

/** Build an Args from a brace list, faking argv[0]. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage_(std::move(args))
    {
        ptrs_.push_back(const_cast<char *>("test"));
        for (auto &arg : storage_)
            ptrs_.push_back(arg.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
};

/** Parse with the option names the tests below use. */
Args
parse(std::vector<std::string> args, std::size_t maxPositional = 1)
{
    Argv argv(std::move(args));
    return Args(argv.argc(), argv.argv(),
                {"bias", "big", "cigar", "rate", "ssthreshold", "threads",
                 "variant", "verbose"},
                maxPositional);
}

TEST(Cli, LooksLikeNumberClassifiesLiterals)
{
    EXPECT_TRUE(looksLikeNumber("-5"));
    EXPECT_TRUE(looksLikeNumber("-0.3"));
    EXPECT_TRUE(looksLikeNumber("+1e6"));
    EXPECT_TRUE(looksLikeNumber("42"));
    EXPECT_FALSE(looksLikeNumber("--verbose"));
    EXPECT_FALSE(looksLikeNumber("-lag"));
    EXPECT_FALSE(looksLikeNumber(""));
    EXPECT_FALSE(looksLikeNumber("5x"));
}

TEST(Cli, NegativeIntegerBindsAsOptionValue)
{
    // Regression: "--ssthreshold -5" used to turn into a boolean flag
    // plus a stray "-5" positional.
    const Args args = parse({"pairs.txt", "--ssthreshold", "-5"});
    EXPECT_EQ(args.getInt("ssthreshold", 0), -5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional().front(), "pairs.txt");
}

TEST(Cli, NegativeDoubleBindsAsOptionValue)
{
    const Args args = parse({"--bias", "-0.25"});
    EXPECT_DOUBLE_EQ(args.getDouble("bias", 0.0), -0.25);
    EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, OptionFollowedByOptionStaysAFlag)
{
    const Args args = parse({"--verbose", "--threads", "4"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.get("verbose"), "1");
    EXPECT_EQ(args.getInt("threads", 1), 4);
}

TEST(Cli, TrailingOptionIsAFlag)
{
    const Args args = parse({"input.txt", "--cigar"});
    EXPECT_TRUE(args.has("cigar"));
    EXPECT_EQ(args.get("cigar"), "1");
}

TEST(Cli, MissingOptionFallsBack)
{
    const Args args = parse({"input.txt"});
    EXPECT_EQ(args.getInt("threads", 3), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.5), 0.5);
    EXPECT_EQ(args.get("variant", "qzc"), "qzc");
}

TEST(Cli, MalformedIntegerIsFatal)
{
    // Regression: atol() silently returned 0 for garbage.
    const Args args = parse({"--threads", "abc"});
    EXPECT_THROW(args.getInt("threads", 1), FatalError);
    const Args trailing = parse({"--threads", "4x"});
    EXPECT_THROW(trailing.getInt("threads", 1), FatalError);
}

TEST(Cli, MalformedDoubleIsFatal)
{
    const Args args = parse({"--rate", "fast"});
    EXPECT_THROW(args.getDouble("rate", 0.0), FatalError);
    const Args trailing = parse({"--rate", "0.5pct"});
    EXPECT_THROW(trailing.getDouble("rate", 0.0), FatalError);
}

TEST(Cli, OutOfRangeIntegerIsFatal)
{
    const Args args =
        parse({"--big", "999999999999999999999999999999"});
    EXPECT_THROW(args.getInt("big", 0), FatalError);
}

TEST(Cli, HelpNeedsNoDeclaration)
{
    Argv argv({"--help", "--count", "25"});
    const Args args(argv.argc(), argv.argv(), {"count"}, 0);
    EXPECT_TRUE(args.has("help"));
    EXPECT_EQ(args.getInt("count", 100), 25);
}

TEST(Cli, UsageErrorsPrintOnceAndExitTwo)
{
    // Regression: qz-datagen --pairs 25 used to write the default 100
    // pairs and exit 0.
    // The shape of every tool's main(): parse, then report whatever
    // escaped exactly once at the top level.
    auto tool = [](std::vector<std::string> args) {
        try {
            Argv argv(std::move(args));
            const Args parsed(argv.argc(), argv.argv(), {"count"}, 1);
            parsed.getInt("count", 1);
            fatal("no work for {}", "this tool");
        } catch (const std::exception &e) {
            return reportError(e);
        }
    };
    testing::internal::CaptureStderr();
    EXPECT_EQ(tool({"--pairs", "25"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: unknown option --pairs (valid: --count --help)\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(tool({"--count", "x"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: option --count expects an integer, got 'x'\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(tool({"--count", "3"}), 1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: no work for this tool\n");
    // Regression: "qz_align pairs.txt -threads 4" ran with one thread
    // and exited 0, reading "-threads" and "4" as unused positionals.
    testing::internal::CaptureStderr();
    EXPECT_EQ(tool({"pairs.txt", "-threads", "4"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: unknown option -threads (valid: --count --help)\n");
    testing::internal::CaptureStderr();
    EXPECT_EQ(tool({"pairs.txt", "extra.txt"}), 2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "fatal: unexpected argument 'extra.txt' (at most 1 "
              "positional argument(s) accepted)\n");
}

TEST(Cli, PositionalCountIsBounded)
{
    EXPECT_THROW(parse({"a.txt", "b.txt"}), UsageError);
    EXPECT_THROW(parse({"a.txt"}, 0), UsageError);
    // A number is a positional too, and counts against the bound.
    EXPECT_THROW(parse({"a.txt", "-5"}), UsageError);
    EXPECT_TRUE(parse({"--threads", "4"}, 0).positional().empty());
    const Args any = parse({"a.json", "b.json", "c.json"}, kAnyPositional);
    EXPECT_EQ(any.positional().size(), 3u);
}

TEST(Cli, SingleDashNameIsAnUnknownOption)
{
    EXPECT_THROW(parse({"-threads", "4"}), UsageError);
    EXPECT_THROW(parse({"pairs.txt", "-v"}), UsageError);
    // A lone "-" names stdin and stays a positional.
    const Args stdinArgs = parse({"-"});
    ASSERT_EQ(stdinArgs.positional().size(), 1u);
    EXPECT_EQ(stdinArgs.positional().front(), "-");
}

TEST(Cli, WellFormedValuesStillParse)
{
    const Args args = parse({"--threads", "8", "--rate", "1.5e-2"});
    EXPECT_EQ(args.getInt("threads", 1), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.015);
}

/** Set (or, for nullopt, unset) @p name for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, std::optional<std::string> value)
        : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value->c_str(), 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(BenchEnv, ScaleParsesStrictly)
{
    {
        const ScopedEnv env("QZ_BENCH_SCALE", std::nullopt);
        EXPECT_DOUBLE_EQ(bench::benchScale(), 1.0);
    }
    {
        const ScopedEnv env("QZ_BENCH_SCALE", "0.02");
        EXPECT_DOUBLE_EQ(bench::benchScale(), 0.02);
    }
    // Regression: atof() turned "abc" into scale 1.0 with no message.
    for (const char *bad : {"abc", "0.5x", "", "0", "-1", "inf", "nan",
                            "1e999"}) {
        const ScopedEnv env("QZ_BENCH_SCALE", bad);
        EXPECT_THROW(bench::benchScale(), FatalError) << "'" << bad << "'";
    }
}

TEST(BenchEnv, ThreadsParseStrictly)
{
    {
        const ScopedEnv env("QZ_BENCH_THREADS", "3");
        EXPECT_EQ(bench::benchThreads(), 3u);
    }
    // Regression: a malformed value only warned and fell back to every
    // core.
    for (const char *bad : {"four", "4x", "", "0", "-2", "1.5",
                            "99999999999999999999999"}) {
        const ScopedEnv env("QZ_BENCH_THREADS", bad);
        EXPECT_THROW(bench::benchThreads(), FatalError) << "'" << bad << "'";
    }
}

} // namespace
} // namespace quetzal::cli
