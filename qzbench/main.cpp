/**
 * @file
 * qzbench: the repository's end-to-end and per-layer benchmark.
 *
 *   qzbench --workload short_align|serve_mix --seed N
 *           --seconds S --trace 0|1 [--small] [--work-dir DIR]
 *   qzbench --worker        # internal: a serve_mix pool worker
 *
 * Normally started through run.py, which builds it first and runs it
 * from the repository root. The workloads and the metrics' units come
 * from ./BENCHMARK.json, the only table of them. Prints the
 * provenance, every metric by name with its unit, and as the last
 * line one JSON object {correct, attempted, failed, metrics}: every
 * end-to-end metric untraced, every per-layer metric traced. Exits 1
 * when any output check failed, 2 on a usage or set-up error.
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "common/json.hpp"
#include "isa/hostsimd.hpp"
#include "serve/worker.hpp"

namespace {

using namespace qzbench;

/** The benchmark's declared tables, read from BENCHMARK.json. */
struct Declared
{
    std::vector<std::string> workloads;
    std::map<std::string, std::string> endToEnd; //!< name -> unit
    std::map<std::string, std::string> perLayer; //!< name -> unit
};

std::optional<Declared>
readDeclared(const std::filesystem::path &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::stringstream text;
    text << in.rdbuf();
    const auto json = quetzal::parseJson(text.str());
    if (!json || !json->isObject())
        return std::nullopt;
    Declared declared;
    if (const auto *workloads = json->find("workloads"))
        for (const quetzal::JsonValue &w : workloads->items())
            declared.workloads.push_back(w.getString("name"));
    const auto units = [&](const char *key,
                           std::map<std::string, std::string> &into) {
        if (const auto *metrics = json->find(key))
            for (const quetzal::JsonValue &m : metrics->items())
                into[m.getString("name")] = m.getString("unit");
    };
    units("end_to_end", declared.endToEnd);
    units("per_layer", declared.perLayer);
    return declared;
}

/** Shortest text that reads back as exactly @p value; null if not finite. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
selfExecutable(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return argv0;
    buf[n] = '\0';
    return buf;
}

Outcome
runWorkload(const Options &options)
{
    return options.workload == "serve_mix" ? runServe(options)
                                           : runAlign(options);
}

/** Share of a traced run's window its own workload gets. */
constexpr double kTracedOwnShare = 0.75;

/**
 * A traced run reports every per-layer metric, and each workload
 * drives only some of the layers. So it runs its own workload traced
 * for most of the window and the other one for the rest, and keeps
 * its own workload's figure where both report a metric (genomics.*,
 * trace.overhead_frac).
 */
Outcome
runTraced(const Options &options)
{
    Options own = options;
    own.seconds = options.seconds * kTracedOwnShare;
    Options other = options;
    other.seconds = options.seconds - own.seconds;
    other.workload =
        options.workload == "serve_mix" ? "short_align" : "serve_mix";

    Outcome outcome = runWorkload(own);
    Outcome more = runWorkload(other);
    std::set<std::string> have;
    for (const Metric &m : outcome.metrics)
        have.insert(m.name);
    for (Metric &m : more.metrics)
        if (!have.count(m.name))
            outcome.metrics.push_back(std::move(m));
    outcome.attempted += more.attempted;
    outcome.failed += more.failed;
    for (const std::string &note : more.notes)
        outcome.notes.push_back(other.workload + ": " + note);
    return outcome;
}

int
usage(const std::string &why)
{
    std::cerr << "qzbench: " << why
              << "\nusage: qzbench --workload short_align|serve_mix --seed N "
                 "--seconds S --trace 0|1 [--small] [--work-dir DIR]\n"
                 "               [--commit C] [--source-digest D] "
                 "[--command-line TEXT]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "--worker") {
        // A serve_mix pool worker, fork/exec'd as qz-serve does: frames
        // on stdin/stdout, with fd 1 re-pointed at stderr so a stray
        // print cannot corrupt the frame stream. No fault injection.
        const int requestFd = ::dup(STDIN_FILENO);
        const int responseFd = ::dup(STDOUT_FILENO);
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        const int code = quetzal::serve::workerMain(requestFd, responseFd,
                                                    std::nullopt);
        recordWorkerPeak();
        return code;
    }

    Options options;
    std::map<std::string, std::string> provenance;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--small") {
            options.small = true;
            continue;
        }
        if (i + 1 >= args.size())
            return usage("missing value for " + flag);
        const std::string &value = args[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value, &used);
                haveSeed = used == value.size() && value[0] != '-';
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value, &used);
                haveSeconds = used == value.size() &&
                              std::isfinite(options.seconds) &&
                              options.seconds > 0;
            } else if (flag == "--trace") {
                haveTrace = value == "0" || value == "1";
                options.trace = value == "1";
            } else if (flag == "--work-dir") {
                options.workDir = value;
            } else if (flag == "--commit" || flag == "--source-digest" ||
                       flag == "--command-line") {
                provenance[flag.substr(2)] = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            return usage("malformed value '" + value + "' for " + flag);
        }
    }
    const std::optional<Declared> declared = readDeclared("BENCHMARK.json");
    if (!declared)
        return usage("cannot read BENCHMARK.json in the working directory");
    if (std::find(declared->workloads.begin(), declared->workloads.end(),
                  options.workload) == declared->workloads.end() ||
        (options.workload != "short_align" &&
         options.workload != "serve_mix"))
        return usage("unknown workload '" + options.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace take a non-negative "
                     "integer, a positive number and 0|1");
    if (options.workDir.empty())
        options.workDir = ".bench_build/run-" + std::to_string(::getpid());
    options.workDir = std::filesystem::absolute(options.workDir);
    options.selfExe = selfExecutable(argv[0]);

    // Provenance: every result traces back to a command, a commit and
    // a host.
    std::string commandLine = provenance["command-line"];
    if (commandLine.empty())
        for (int i = 0; i < argc; ++i)
            commandLine += (i ? " " : "") + std::string(argv[i]);
    quetzal::JsonWriter prov;
    prov.beginObject()
        .field("commit", provenance.count("commit") ? provenance["commit"]
                                                    : "unknown")
        .field("source_digest", provenance["source-digest"])
        .field("command", commandLine)
        .field("workload", options.workload)
        .field("seed", options.seed)
        .field("seconds", options.seconds)
        .field("trace", options.trace)
        .field("small", options.small)
        .field("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()))
        .field("cpu", cpuModel())
        .field("host_simd", quetzal::isa::hostSimd().name)
        .field("host_simd_build", quetzal::isa::hostSimdBuildFlags())
        .field("compiler", quetzal::isa::hostSimdCompiler())
        .endObject();

    Outcome outcome;
    try {
        // Pool workers leave their peak RSS here as they exit.
        const std::filesystem::path peaks = options.workDir / "worker-peaks";
        std::filesystem::create_directories(peaks);
        ::setenv(kWorkerPeakDirEnv, peaks.c_str(), 1);
        outcome = options.trace ? runTraced(options) : runWorkload(options);
    } catch (const std::exception &e) {
        std::error_code ignored;
        std::filesystem::remove_all(options.workDir, ignored);
        std::cerr << "qzbench: " << e.what() << "\n";
        return 2;
    }
    std::filesystem::remove_all(options.workDir);

    // Units come from BENCHMARK.json: the end-to-end table untraced,
    // the per-layer one traced. An undeclared or non-finite metric, or
    // a declared metric of the table left out, is a failed check.
    std::map<std::string, std::string> unitOf =
        options.trace ? declared->perLayer : declared->endToEnd;
    std::set<std::string> printed;
    for (const Metric &m : outcome.metrics) {
        outcome.check(unitOf.count(m.name) && std::isfinite(m.value),
                      "metric " + m.name + " is undeclared or not finite");
        printed.insert(m.name);
    }
    for (const auto &[name, unit] : unitOf)
        outcome.check(printed.count(name) != 0,
                      "metric " + name + " not printed");

    std::cout << "qzbench " << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << options.trace << "\n"
              << "provenance " << prov.str() << "\n";
    for (const Metric &m : outcome.metrics)
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << unitOf[m.name] << "\n";
    for (const std::string &note : outcome.notes)
        std::cout << "  # " << note << "\n";

    const bool correct = outcome.failed == 0 && outcome.attempted > 0;
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted
           << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        result << (i ? ", " : "") << "\"" << m.name
               << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
               << unitOf[m.name] << "\"}";
    }
    result << "}}";

    // The same result, with its provenance, kept beside the traces.
    const std::filesystem::path results =
        options.workDir.parent_path() / "results";
    std::filesystem::create_directories(results);
    std::ofstream(results / (options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json"))
        << "{\"provenance\": " << prov.str()
        << ", \"result\": " << result.str() << "}\n";

    std::cout << result.str() << std::endl;
    return correct ? 0 : 1;
}
