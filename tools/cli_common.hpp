/**
 * @file
 * Argv parsing shared by the command-line tools and the bench
 * binaries: each entry point declares one option table.
 */
#ifndef QUETZAL_TOOLS_CLI_COMMON_HPP
#define QUETZAL_TOOLS_CLI_COMMON_HPP

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <signal.h>

#include "algos/batch.hpp"
#include "algos/variant.hpp"
#include "common/logging.hpp"

namespace quetzal::cli {

/**
 * Process-wide stop flag set by SIGINT/SIGTERM once
 * installStopHandlers() ran. Long-running loops poll it (directly or
 * via stopRequested()) so an interrupted run can flush checkpoints
 * and emit a partial report instead of dying with work unrecorded.
 */
inline std::atomic<int> &
stopFlag()
{
    static std::atomic<int> flag{0};
    return flag;
}

inline void
onStopSignal(int)
{
    stopFlag().store(1, std::memory_order_relaxed);
}

/**
 * Install SIGINT/SIGTERM handlers that set stopFlag(). Deliberately
 * no SA_RESTART: a blocked poll()/read() wakes with EINTR, so event
 * loops notice the stop promptly instead of after the next event.
 */
inline void
installStopHandlers()
{
    struct sigaction action = {};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

/** True once a stop signal landed. */
inline bool
stopRequested()
{
    return stopFlag().load(std::memory_order_relaxed) != 0;
}

/**
 * True when @p arg is a numeric literal such as "-5", "-0.3", or
 * "+1e6" — i.e. a leading sign does NOT make it an option name.
 */
inline bool
looksLikeNumber(const std::string &arg)
{
    if (arg.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    std::strtod(arg.c_str(), &end);
    return end == arg.c_str() + arg.size() && errno == 0;
}

/** A command-line mistake; the tools exit 2 on it instead of 1. */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Throw a UsageError with fatal()'s "fatal: " message format. */
template <typename... Ts>
[[noreturn]] void
usageError(std::string_view fmt, Ts &&...args)
{
    throw UsageError("fatal: " + qformat(fmt, std::forward<Ts>(args)...));
}

/**
 * Print a tool's top-level error once and pick its exit status: 2 for
 * a command-line mistake, 1 for anything else.
 */
inline int
reportError(const std::exception &error)
{
    std::cerr << error.what() << "\n";
    return dynamic_cast<const UsageError *>(&error) ? 2 : 1;
}

/** Args' positional bound for a tool that takes any number of them. */
inline constexpr std::size_t kAnyPositional =
    std::numeric_limits<std::size_t>::max();

/**
 * One row of an entry point's option table. The table is the only
 * declaration of an option: the parser accepts exactly its names,
 * --help is generated from it, and the getters read its defaults.
 */
struct Option
{
    std::string_view name;     //!< without the leading "--"
    std::string_view value;    //!< value placeholder; empty for a flag
    std::string_view fallback; //!< default value; empty for none
    std::string_view help;     //!< one-line description
};

/** Parsed "--key value" options plus positional arguments. */
class Args
{
  public:
    /**
     * @param usage         the synopsis --help prints above the
     *                      options, newline-terminated.
     * @param table         every option the entry point reads, in
     *                      static storage; "--help" is built in. Any
     *                      other "--name", and any "-name" that is not
     *                      a number, is a UsageError listing the valid
     *                      names, so a mistyped option never falls back
     *                      to a default.
     * @param maxPositional the most positional arguments the entry
     *                      point reads (kAnyPositional for no bound);
     *                      one more is a UsageError, not ignored. A lone
     *                      "-" (stdin) is a positional.
     */
    Args(int argc, char **argv, std::string_view usage,
         std::span<const Option> table, std::size_t maxPositional)
        : usage_(usage), table_(table)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::string name = arg.substr(2);
                const Option *option = find(name);
                if (!option)
                    unknownOption(arg);
                if (option->value.empty()) {
                    // A flag never takes the next argument, and
                    // "--cigar 0" is not "--cigar" plus an input
                    // named "0": numbers are never positionals here.
                    if (i + 1 < argc && looksLikeNumber(argv[i + 1]))
                        usageError("option {} is a flag and takes no "
                                   "value (got '{}')",
                                   arg, argv[i + 1]);
                    options_.insert_or_assign(name, "1");
                    continue;
                }
                // A value option takes the next argument unless that
                // is an option name: "--ssthreshold -5" binds -5 and
                // "--json -" binds stdout, but "--threads --cigar"
                // has no value.
                if (i + 1 == argc || isOptionName(argv[i + 1]))
                    usageError("option {} expects a value {}", arg,
                               option->value);
                options_.insert_or_assign(name, std::string(argv[++i]));
            } else if (isOptionName(arg)) {
                // "-threads 4" is a mistyped option, not two inputs.
                unknownOption(arg);
            } else {
                if (positional_.size() == maxPositional)
                    usageError("unexpected argument '{}' ({} accepted)",
                               arg,
                               maxPositional == 0
                                   ? std::string("no positional arguments")
                                   : qformat("at most {} positional "
                                             "argument(s)",
                                             maxPositional));
                positional_.push_back(std::move(arg));
            }
        }
    }

    /** True when @p name was given on the command line. */
    bool
    has(std::string_view name) const
    {
        declared(name);
        return options_.find(name) != options_.end();
    }

    /** The value given for @p name, else its table default. */
    std::string
    get(std::string_view name) const
    {
        const Option &option = declared(name);
        const auto it = options_.find(name);
        return it == options_.end() ? std::string(option.fallback)
                                    : it->second;
    }

    /**
     * Integer value of @p name (given, else its default). Malformed
     * input, and a value outside [@p min, @p max], is a UsageError:
     * nothing is clamped. Callers narrowing the result pass their
     * target type's range.
     */
    long
    getInt(std::string_view name,
           long min = std::numeric_limits<long>::min(),
           long max = std::numeric_limits<long>::max()) const
    {
        const long value =
            parse<long>(name, "an integer", [](const char *text,
                                               char **end) {
                return std::strtol(text, end, 10);
            });
        if (value < min)
            usageError("option --{} must be at least {}, got {}", name,
                       min, value);
        if (value > max)
            usageError("option --{} must be at most {}, got {}", name,
                       max, value);
        return value;
    }

    /** Finite floating-point value of @p name; else a UsageError. */
    double
    getDouble(std::string_view name) const
    {
        return parse<double>(name, "a number", [](const char *text,
                                                  char **end) {
            return std::strtod(text, end);
        });
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The --help text: the usage, then one line per table row. */
    std::string
    help() const
    {
        std::vector<Option> rows(table_.begin(), table_.end());
        rows.push_back(kHelp);
        std::size_t width = 0;
        for (const Option &row : rows)
            width = std::max(width, row.name.size() + row.value.size());
        std::string text(usage_);
        for (const Option &row : rows) {
            const std::string left = qformat("--{} {}", row.name, row.value);
            text += qformat("  {}{} {}{}\n", left,
                            std::string(width + 4 - left.size(), ' '),
                            row.help,
                            row.fallback.empty()
                                ? std::string()
                                : qformat(" (default {})", row.fallback));
        }
        return text;
    }

  private:
    static constexpr Option kHelp{"help", "", "",
                                  "print this help and exit"};

    static bool
    isOptionName(std::string_view arg)
    {
        return arg.size() > 1 && arg[0] == '-' &&
               !looksLikeNumber(std::string(arg));
    }

    const Option *
    find(std::string_view name) const
    {
        if (name == kHelp.name)
            return &kHelp;
        for (const Option &option : table_)
            if (option.name == name)
                return &option;
        return nullptr;
    }

    /** The row of @p name; reading an undeclared name is a bug. */
    const Option &
    declared(std::string_view name) const
    {
        const Option *option = find(name);
        panic_if_not(option != nullptr,
                     "option --{} is not in the option table", name);
        return *option;
    }

    /** Parse @p name's value (given or defaulted) with @p strto. */
    template <typename T, typename StrTo>
    T
    parse(std::string_view name, std::string_view kind, StrTo strto) const
    {
        panic_if_not(has(name) || !declared(name).fallback.empty(),
                     "option --{} has no default; check has() first",
                     name);
        const std::string text = get(name);
        errno = 0;
        char *end = nullptr;
        const T value = strto(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size() ||
            !std::isfinite(static_cast<double>(value)))
            usageError("option --{} expects {}, got '{}'", name, kind,
                       text);
        if (errno == ERANGE)
            usageError("option --{} value '{}' is out of range", name,
                       text);
        return value;
    }

    [[noreturn]] void
    unknownOption(const std::string &arg) const
    {
        std::vector<std::string_view> names{kHelp.name};
        for (const Option &option : table_)
            names.push_back(option.name);
        std::sort(names.begin(), names.end());
        std::string valid;
        for (const std::string_view name : names)
            valid += qformat("{}--{}", valid.empty() ? "" : " ", name);
        usageError("unknown option {} (valid: {})", arg, valid);
    }

    std::string usage_;
    std::span<const Option> table_; //!< static storage: outlives Args
    std::map<std::string, std::string, std::less<>> options_;
    std::vector<std::string> positional_;
};

/** The --shard K/N value; a malformed spec is a UsageError. */
inline std::optional<algos::ShardSpec>
parseShard(const Args &args)
{
    try {
        return algos::parseShardSpec(args.get("shard"));
    } catch (const FatalError &error) {
        throw UsageError(error.what());
    }
}

/** Parse a variant name ("base", "vec", "qz", "qzc"). */
inline algos::Variant
parseVariant(const std::string &name)
{
    if (name == "base")
        return algos::Variant::Base;
    if (name == "vec")
        return algos::Variant::Vec;
    if (name == "qz")
        return algos::Variant::Qz;
    if (name == "qzc" || name == "quetzal")
        return algos::Variant::QzC;
    usageError("unknown variant '{}' (expected base|vec|qz|qzc)", name);
}

} // namespace quetzal::cli

#endif // QUETZAL_TOOLS_CLI_COMMON_HPP
