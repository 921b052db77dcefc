/**
 * @file
 * Tiny argv helper shared by the command-line tools.
 */
#ifndef QUETZAL_TOOLS_CLI_COMMON_HPP
#define QUETZAL_TOOLS_CLI_COMMON_HPP

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <signal.h>

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

/** Parsed "--key value" options plus positional arguments. */
class Args
{
  public:
    /**
     * @param accepted      the option names (without "--") the tool
     *                      reads; "help" is always accepted. Any other
     *                      "--name", and any "-name" that is not a
     *                      number, is a UsageError listing the valid
     *                      names, so a mistyped flag never falls back
     *                      to a default.
     * @param maxPositional the most positional arguments the tool
     *                      reads (kAnyPositional for no bound); one
     *                      more is a UsageError instead of being
     *                      silently ignored. A lone "-" (stdin) is a
     *                      positional.
     */
    Args(int argc, char **argv,
         std::initializer_list<std::string_view> accepted,
         std::size_t maxPositional)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::string key = arg.substr(2);
                if (key != "help" &&
                    std::find(accepted.begin(), accepted.end(), key) ==
                        accepted.end())
                    unknownOption(arg, accepted);
                // The next argv is this option's value unless it is
                // itself an option. A leading '-' only disqualifies it
                // when it isn't a number: "--ssthreshold -5" must bind
                // -5 as the value, not turn the option into a flag
                // with a stray "-5" positional.
                if (i + 1 < argc &&
                    (argv[i + 1][0] != '-' ||
                     looksLikeNumber(argv[i + 1]))) {
                    options_.insert_or_assign(key,
                                              std::string(argv[++i]));
                } else {
                    options_.insert_or_assign(key,
                                              std::string("1")); // flag
                }
            } else if (arg.size() > 1 && arg[0] == '-' &&
                       !looksLikeNumber(arg)) {
                // "-threads 4" is a mistyped option, not two inputs.
                unknownOption(arg, accepted);
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

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    /**
     * Integer option value. Malformed input is a fatal diagnostic —
     * the old atol() path silently turned garbage into 0.
     */
    long
    getInt(const std::string &key, long fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        const long value = std::strtol(it->second.c_str(), &end, 10);
        if (it->second.empty() ||
            end != it->second.c_str() + it->second.size())
            usageError("option --{} expects an integer, got '{}'", key,
                       it->second);
        if (errno == ERANGE)
            usageError("option --{} value '{}' is out of range", key,
                       it->second);
        return value;
    }

    /** Floating-point option value; malformed input is fatal. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = options_.find(key);
        if (it == options_.end())
            return fallback;
        errno = 0;
        char *end = nullptr;
        const double value = std::strtod(it->second.c_str(), &end);
        if (it->second.empty() ||
            end != it->second.c_str() + it->second.size())
            usageError("option --{} expects a number, got '{}'", key,
                       it->second);
        if (errno == ERANGE)
            usageError("option --{} value '{}' is out of range", key,
                       it->second);
        return value;
    }

    bool has(const std::string &key) const
    {
        return options_.contains(key);
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    [[noreturn]] static void
    unknownOption(const std::string &arg,
                  std::initializer_list<std::string_view> accepted)
    {
        std::vector<std::string_view> names(accepted);
        names.push_back("help");
        std::sort(names.begin(), names.end());
        std::string valid;
        for (const std::string_view name : names)
            valid += qformat("{}--{}", valid.empty() ? "" : " ", name);
        usageError("unknown option {} (valid: {})", arg, valid);
    }

    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

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
    fatal("unknown variant '{}' (expected base|vec|qz|qzc)", name);
}

} // namespace quetzal::cli

#endif // QUETZAL_TOOLS_CLI_COMMON_HPP
