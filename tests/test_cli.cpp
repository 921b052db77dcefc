/**
 * @file
 * Regression tests for the command-line input boundary: each entry
 * point declares one option table. Negative numeric values must bind
 * as option values, a declared flag never takes a value, a value
 * option without one, unknown option names, stray positional
 * arguments and malformed or out-of-range numbers must be one usage
 * error instead of silently falling back to a default, the bench
 * binaries' --scale/--threads flags must be parsed as strictly, and
 * every tool's generated --help must name every option it accepts.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

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

/** The option table the tests below parse against. */
constexpr Option kTable[] = {
    {"bias", "X", "", "a signed number"},
    {"big", "N", "", "an integer"},
    {"cigar", "", "", "a flag"},
    {"rate", "R", "0.5", "a rate"},
    {"sam", "FILE", "", "an output file"},
    {"ssthreshold", "E", "", "a signed integer"},
    {"threads", "N", "3", "a worker count"},
    {"variant", "V", "qzc", "a name"},
    {"verbose", "", "", "another flag"},
};

Args
parse(std::vector<std::string> args, std::size_t maxPositional = 1)
{
    Argv argv(std::move(args));
    return Args(argv.argc(), argv.argv(), "test [options]\n", kTable,
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
    EXPECT_EQ(args.getInt("ssthreshold"), -5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional().front(), "pairs.txt");
}

TEST(Cli, NegativeDoubleBindsAsOptionValue)
{
    const Args args = parse({"--bias", "-0.25"});
    EXPECT_DOUBLE_EQ(args.getDouble("bias"), -0.25);
    EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, OptionFollowedByOptionStaysAFlag)
{
    const Args args = parse({"--verbose", "--threads", "4"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.getInt("threads"), 4);
    // A value option followed by an option has no value. Regression:
    // "--threads --cigar" ran with threads=1.
    EXPECT_THROW(parse({"--threads", "--cigar"}), UsageError);
}

TEST(Cli, TrailingOptionIsAFlag)
{
    const Args args = parse({"input.txt", "--cigar"});
    EXPECT_TRUE(args.has("cigar"));
    EXPECT_FALSE(args.has("verbose"));
    // A trailing value option has no value. Regression: "qz-align
    // p.txt --sam" wrote the SAM output to a file named "1".
    EXPECT_THROW(parse({"input.txt", "--sam"}), UsageError);
}

TEST(Cli, FlagNeverTakesTheNextArgument)
{
    // Regression: "--cigar p.txt" bound the pair file as --cigar's
    // value and left no input.
    const Args args = parse({"--cigar", "p.txt"});
    EXPECT_TRUE(args.has("cigar"));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional().front(), "p.txt");
    const Args verbose = parse({"--verbose", "p.txt"});
    EXPECT_TRUE(verbose.has("verbose"));
    EXPECT_EQ(verbose.positional(), std::vector<std::string>{"p.txt"});
    // Regression: "--cigar 0" turned --cigar on.
    EXPECT_THROW(parse({"--cigar", "0"}), UsageError);
    EXPECT_THROW(parse({"p.txt", "--cigar", "0"}), UsageError);
}

TEST(Cli, MissingOptionReadsTheTableDefault)
{
    const Args args = parse({"input.txt"});
    EXPECT_FALSE(args.has("threads"));
    EXPECT_EQ(args.getInt("threads"), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("rate"), 0.5);
    EXPECT_EQ(args.get("variant"), "qzc");
    EXPECT_EQ(args.get("sam"), "");
}

TEST(Cli, UndeclaredNameOrMissingDefaultIsAPanic)
{
    const Args args = parse({"input.txt"});
    EXPECT_THROW(args.has("count"), PanicError);
    EXPECT_THROW(args.get("count"), PanicError);
    EXPECT_THROW(args.getInt("count"), PanicError);
    // No value given and none declared: the caller must check has().
    EXPECT_THROW(args.getInt("big"), PanicError);
}

TEST(Cli, MalformedIntegerIsFatal)
{
    // Regression: atol() silently returned 0 for garbage.
    const Args args = parse({"--threads", "abc"});
    EXPECT_THROW(args.getInt("threads"), UsageError);
    const Args trailing = parse({"--threads", "4x"});
    EXPECT_THROW(trailing.getInt("threads"), UsageError);
}

TEST(Cli, MalformedDoubleIsFatal)
{
    for (const char *bad : {"fast", "0.5pct", "inf", "nan", "1e999"})
        EXPECT_THROW(parse({"--rate", bad}).getDouble("rate"),
                     UsageError)
            << "'" << bad << "'";
}

TEST(Cli, OutOfRangeIntegerIsFatal)
{
    const Args args =
        parse({"--big", "999999999999999999999999999999"});
    EXPECT_THROW(args.getInt("big"), UsageError);
}

TEST(Cli, IntegerBelowItsMinimumIsAUsageError)
{
    // Regression: qz-serve clamped --workers 0 to 1 without a word.
    EXPECT_THROW(parse({"--threads", "0"}).getInt("threads", 1),
                 UsageError);
    EXPECT_THROW(parse({"--big", "-1"}).getInt("big", 0), UsageError);
    EXPECT_EQ(parse({"--threads", "1"}).getInt("threads", 1), 1);
    EXPECT_EQ(parse({"--big", "0"}).getInt("big", 0), 0);
}

TEST(Cli, IntegerAboveItsMaximumIsAUsageError)
{
    // Regression: qz-align narrowed --lag 99999999999 to a wrapped
    // int32_t and ran. Callers pass their target type's range; qz-serve
    // passes unsigned's for --workers, checked here without a launch.
    constexpr long kInt32Max = std::numeric_limits<std::int32_t>::max();
    constexpr long kUnsignedMax = std::numeric_limits<unsigned>::max();
    for (const char *value : {"2147483648", "99999999999"})
        EXPECT_THROW(parse({"--big", value}).getInt("big", 0, kInt32Max),
                     UsageError)
            << value;
    EXPECT_EQ(parse({"--big", "2147483647"}).getInt("big", 0, kInt32Max),
              kInt32Max);
    EXPECT_THROW(parse({"--threads", "4294967296"})
                     .getInt("threads", 1, kUnsignedMax),
                 UsageError);
    EXPECT_EQ(parse({"--threads", "4294967295"})
                  .getInt("threads", 1, kUnsignedMax),
              kUnsignedMax);
    try {
        parse({"--big", "99999999999"}).getInt("big", 0, kInt32Max);
    } catch (const UsageError &error) {
        EXPECT_STREQ(error.what(), "fatal: option --big must be at most "
                                   "2147483647, got 99999999999");
    }
}

TEST(Cli, HelpNeedsNoDeclaration)
{
    constexpr Option table[] = {{"count", "N", "100", "pairs"}};
    Argv argv({"--help", "--count", "25"});
    const Args args(argv.argc(), argv.argv(), "", table, 0);
    EXPECT_TRUE(args.has("help"));
    EXPECT_EQ(args.getInt("count"), 25);
}

TEST(Cli, HelpIsGeneratedFromTheTable)
{
    const std::string help = parse({}).help();
    EXPECT_EQ(help.rfind("test [options]\n", 0), 0u) << help;
    EXPECT_NE(help.find("\n  --threads N      a worker count (default "
                        "3)\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("\n  --cigar          a flag\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("\n  --help           print this help and "
                        "exit\n"),
              std::string::npos)
        << help;
}

TEST(Cli, UsageErrorsPrintOnceAndExitTwo)
{
    // Regression: qz-datagen --pairs 25 used to write the default 100
    // pairs and exit 0.
    // The shape of every tool's main(): parse, then report whatever
    // escaped exactly once at the top level.
    auto tool = [](std::vector<std::string> args) {
        try {
            constexpr Option table[] = {{"count", "N", "1", "pairs"}};
            Argv argv(std::move(args));
            const Args parsed(argv.argc(), argv.argv(), "", table, 1);
            parsed.getInt("count");
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
    EXPECT_EQ(args.getInt("threads"), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("rate"), 0.015);
}

/** Parse a bench's flags against the shared bench table. */
bench::Settings
benchSettings(std::vector<std::string> args)
{
    Argv argv(std::move(args));
    return bench::parseSettings(
        Args(argv.argc(), argv.argv(), "", bench::kOptions, 0));
}

TEST(BenchFlags, ScaleParsesStrictly)
{
    EXPECT_DOUBLE_EQ(benchSettings({}).scale, 1.0);
    EXPECT_DOUBLE_EQ(benchSettings({"--scale", "0.02"}).scale, 0.02);
    // Regression: atof() turned "abc" into scale 1.0 with no message.
    for (const char *bad : {"abc", "0.5x", "", "0", "-1", "inf", "nan",
                            "1e999"})
        EXPECT_THROW(benchSettings({"--scale", bad}), UsageError)
            << "'" << bad << "'";
}

TEST(BenchFlags, ThreadsParseStrictly)
{
    EXPECT_EQ(benchSettings({"--threads", "3"}).threads, 3u);
    // Regression: a malformed value only warned and fell back to every
    // core.
    for (const char *bad : {"four", "4x", "", "0", "-2", "1.5",
                            "99999999999999999999999", "4294967296"})
        EXPECT_THROW(benchSettings({"--threads", bad}), UsageError)
            << "'" << bad << "'";
}

TEST(BenchFlags, ShardJsonAndCheckpointAreFlags)
{
    const bench::Settings settings =
        benchSettings({"--shard", "2/3", "--json", "-", "--checkpoint",
                       "c.jsonl"});
    EXPECT_EQ(settings.shard, (algos::ShardSpec{2, 3}));
    EXPECT_EQ(settings.json, "-");
    EXPECT_EQ(settings.checkpoint, "c.jsonl");
    EXPECT_FALSE(benchSettings({}).shard.has_value());
    EXPECT_THROW(benchSettings({"--shard", "4/3"}), UsageError);
}

/** Exit status and merged stdout+stderr of one shell command. */
struct Exit
{
    int status = -1;
    std::string output;
};

Exit
run(const std::string &command)
{
    Exit result;
    FILE *pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (!pipe)
        return result;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        result.output.append(buf, n);
    const int raw = ::pclose(pipe);
    result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return result;
}

/** Lines of @p text that start with "fatal:". */
std::size_t
fatalLines(const std::string &text)
{
    std::size_t count = text.rfind("fatal:", 0) == 0 ? 1 : 0;
    for (std::size_t at = text.find("\nfatal:"); at != std::string::npos;
         at = text.find("\nfatal:", at + 1))
        ++count;
    return count;
}

const std::string kTools = QZ_TOOLS_BIN_DIR;

TEST(ToolHelp, NamesEveryAcceptedOption)
{
    for (const std::string &exe :
         {kTools + "/qz_align", kTools + "/qz_filter",
          kTools + "/qz_datagen", kTools + "/qz_serve",
          kTools + "/qz_merge",
          std::string(QZ_BENCHES_BIN_DIR) + "/bench_table3_area"}) {
        // The parser's own list of valid names, from a usage error.
        const Exit unknown = run(exe + " --no-such-option");
        EXPECT_EQ(unknown.status, 2) << exe;
        const std::size_t from = unknown.output.find("(valid: ");
        const std::size_t to = unknown.output.find(')', from);
        ASSERT_NE(to, std::string::npos) << exe << ": " << unknown.output;
        const Exit help = run(exe + " --help");
        EXPECT_EQ(help.status, 0) << exe;
        std::istringstream names(
            unknown.output.substr(from + 8, to - from - 8));
        std::size_t count = 0;
        for (std::string name; names >> name; ++count)
            EXPECT_NE(help.output.find("\n  " + name + " "),
                      std::string::npos)
                << exe << " --help does not list " << name << ":\n"
                << help.output;
        EXPECT_GE(count, 2u) << exe;
    }
    // The affine penalties were accepted but missing from the
    // hand-written help.
    const Exit align = run(kTools + "/qz_align --help");
    for (const char *name : {"--x N", "--o N", "--e N"})
        EXPECT_NE(align.output.find(name), std::string::npos) << name;
}

TEST(ToolArgs, BadValuesExitTwoWithOneFatalLine)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("qz_test_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string pairs = (dir / "p.txt").string();
    const std::string requests = (dir / "r.jsonl").string();
    ASSERT_EQ(run(kTools + "/qz_datagen --count 3 --length 60 --out " +
                  pairs)
                  .status,
              0);
    std::ofstream(requests)
        << R"({"workload":"WFA","dataset":"100bp_1","scale":0.01})"
        << "\n";
    // Regression: "qz-filter --verbose p.txt" bound p.txt as the value
    // of --verbose.
    const Exit verbose = run(kTools + "/qz_filter --verbose " + pairs);
    EXPECT_EQ(verbose.status, 0) << verbose.output;
    EXPECT_NE(verbose.output.find("pair 0: "), std::string::npos);

    const std::string out = " --out " + (dir / "x.txt").string();
    // `timeout` bounds a regression: --count -1 once generated
    // SIZE_MAX pairs.
    for (const std::string &command :
         {kTools + "/qz_align --threads 0 " + pairs,
          kTools + "/qz_filter --threads 0 " + pairs,
          kTools + "/qz_align --cigar 0 " + pairs,
          kTools + "/qz_align " + pairs + " --sam",
          kTools + "/qz_align --x 0 " + pairs,
          kTools + "/qz_align " + pairs + " --lag 99999999999",
          kTools + "/qz_align " + pairs + " --e 2147483648",
          kTools + "/qz_datagen --dataset 100bp_1 --count 5" + out,
          kTools + "/qz_datagen --dataset 100bp_1 --length 60" + out,
          kTools + "/qz_datagen --dataset 100bp_1 --error 0.1" + out,
          kTools + "/qz_datagen --dataset 100bp_1 --seed 7" + out,
          kTools + "/qz_datagen --scale 0.5" + out,
          kTools + "/qz_datagen --error 2" + out,
          kTools + "/qz_datagen --dataset 100bp_1 --scale 0" + out,
          kTools + "/qz_datagen --count -1" + out,
          kTools + "/qz_datagen --length -1" + out,
          kTools + "/qz_serve --workers 0 " + requests,
          kTools + "/qz_serve --queue 0 " + requests,
          kTools + "/qz_serve --retries 0 " + requests,
          kTools + "/qz_serve --deadline -1 " + requests}) {
        const Exit result = run("timeout 5 " + command);
        EXPECT_EQ(result.status, 2) << command << "\n" << result.output;
        EXPECT_EQ(fatalLines(result.output), 1u)
            << command << "\n" << result.output;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace quetzal::cli
