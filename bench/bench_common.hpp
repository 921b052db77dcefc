/**
 * @file
 * Shared plumbing for the per-figure/per-table bench binaries.
 *
 * Each binary regenerates one table or figure of the paper: it builds
 * the workload, queues the relevant (algorithm, variant, dataset)
 * cells on the batch engine, and prints the same rows/series the
 * paper reports.
 *
 * Every bench takes the flags of one shared table, kOptions (run any
 * bench with --help): --scale, --threads, --json, --checkpoint,
 * --shard and --list. QZ_FAULT_INJECT (CELL:KIND[:TIMES],
 * docs/ROBUSTNESS.md) is the one environment knob a bench reads.
 *
 * Each main() runs its body through runMain(), which parses the flags
 * before anything is printed and reports an error once: a command-line
 * mistake (unknown flag, malformed or out-of-range value) exits 2, a
 * runtime fatal such as an unwritable --json path exits 1. A set
 * environment variable of the old name for one of these flags is a
 * usage error that names the flag, never a silent default. These
 * binaries report
 * simulated metrics; host throughput is measured by the benchmark
 * (python3 qzbench/run.py, see qzbench/NOTES.md).
 */
#ifndef QUETZAL_BENCH_BENCH_COMMON_HPP
#define QUETZAL_BENCH_BENCH_COMMON_HPP

#include <cctype>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "../tools/cli_common.hpp"
#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/runner.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "genomics/datasets.hpp"
#include "genomics/protein.hpp"

namespace quetzal::bench {

/** The option table every bench binary shares. */
inline constexpr cli::Option kOptions[] = {
    {"scale", "S", "1.0", "dataset scale (0.2 quick, 4 long)"},
    {"threads", "N", "", "harness workers (default: all cores)"},
    {"json", "PATH", "",
     "also write the results as JSON to PATH ('-' = stdout)"},
    {"checkpoint", "PATH", "",
     "append completed cells to PATH and skip cells already in it "
     "(resumable sweeps)"},
    {"shard", "K/N", "",
     "run only cells with index % N == K-1; qz-merge reassembles the "
     "shards' --json files (docs/SIMULATOR.md)"},
    {"list", "", "",
     "print every registered workload with its variants/datasets and "
     "exit"},
};

/** A bench run's settings, parsed once from kOptions. */
struct Settings
{
    double scale = 1.0;
    unsigned threads = 1;
    std::string json;       //!< empty: no JSON; "-": stdout
    std::string checkpoint; //!< empty: no checkpoint
    std::optional<algos::ShardSpec> shard;
};

/** Parse a bench's flags; a bad value is a cli::UsageError. */
inline Settings
parseSettings(const cli::Args &args)
{
    Settings settings;
    settings.scale = args.getDouble("scale");
    if (settings.scale <= 0)
        cli::usageError("option --scale expects a positive number, "
                        "got '{}'",
                        args.get("scale"));
    settings.threads = ThreadPool::hardwareThreads();
    if (args.has("threads")) {
        const long threads = args.getInt("threads", 1);
        if (threads > std::numeric_limits<unsigned>::max())
            cli::usageError("option --threads value {} is out of range",
                            threads);
        settings.threads = static_cast<unsigned>(threads);
    }
    settings.json = args.get("json");
    settings.checkpoint = args.get("checkpoint");
    settings.shard = cli::parseShard(args);
    return settings;
}

/**
 * A bench main()'s top level: parse argv against kOptions, answer
 * --help and --list, run @p body with the parsed Settings and return
 * its status. An error that escapes is printed once and becomes exit
 * status 2 (usage) or 1 (anything else) instead of std::terminate.
 */
template <typename Body>
int
runMain(int argc, char **argv, Body &&body)
{
    try {
        // The knobs these flags replaced: an old script must not run
        // at the default scale without notice.
        for (const cli::Option &option : kOptions) {
            std::string env = "QZ_BENCH_";
            for (const char c : option.name)
                env += static_cast<char>(std::toupper(c));
            if (std::getenv(env.c_str()))
                cli::usageError("{} is no longer read: pass --{} "
                                "instead",
                                env, option.name);
        }
        const std::string_view self = argv[0];
        const cli::Args args(
            argc, argv,
            qformat("{} [options]\nRegenerate one table or figure of "
                    "the paper as simulated metrics.\n",
                    self.substr(self.find_last_of('/') + 1)),
            kOptions, 0);
        if (args.has("help")) {
            std::cout << args.help();
            return 0;
        }
        if (args.has("list")) {
            std::cout << algos::workloadListing();
            return 0;
        }
        return body(parseSettings(args));
    } catch (const std::exception &error) {
        return cli::reportError(error);
    }
}

/** Print the experiment banner with the Table I system summary. */
inline void
banner(const std::string &title, const Settings &settings)
{
    std::cout << "==================================================\n"
              << title << "\n"
              << "Simulated system (Table I): 2.0 GHz A64FX-like, "
                 "512-bit SVE,\n"
              << "  L1D 64KB/8w lt=4, L2 8MB/16w lt=37, HBM2; "
                 "QUETZAL 2x8KB QBUFFERs\n"
              << "Dataset scale: " << settings.scale
              << " (--scale), harness threads: " << settings.threads
              << " (--threads)\n"
              << "==================================================\n";
}

/** Shared-ownership dataset handle for batch cells. */
using DatasetPtr = std::shared_ptr<const genomics::PairDataset>;

/** Materialize a catalog dataset behind a shared handle. */
inline DatasetPtr
makeDatasetPtr(std::string_view name, double scale)
{
    return std::make_shared<const genomics::PairDataset>(
        genomics::makeDataset(name, scale));
}

/** RunOptions for one verification-free bench cell. */
inline algos::RunOptions
cellOptions(algos::Variant variant,
            std::size_t maxLen = ~std::size_t{0},
            genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna,
            unsigned qzPorts = 8)
{
    algos::RunOptions options;
    options.variant = variant;
    options.maxLen = maxLen;
    options.alphabet = alphabet;
    options.verify = false; // the test suite covers correctness
    if (algos::needsQuetzal(variant))
        options.system = sim::SystemParams::withQuetzal(qzPorts);
    return options;
}

/**
 * The bench binaries' front end to algos::BatchRunner: queue every
 * cell of the figure first, then run() once across --threads workers
 * and read results back by the indices add() returned. Results are
 * deterministic and bitwise identical to a serial run.
 */
class CellBatch
{
  public:
    explicit CellBatch(const Settings &settings)
        : runner_(settings.threads)
    {
        runner_.policy().checkpointPath = settings.checkpoint;
        runner_.policy().shard = settings.shard;
        runner_.policy().inject = algos::faultInjectionFromEnv();
    }

    /** Queue a cell; @return its index into results(). */
    std::size_t
    add(algos::AlgoKind kind, DatasetPtr dataset,
        algos::Variant variant, std::size_t maxLen = ~std::size_t{0},
        genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna,
        unsigned qzPorts = 8)
    {
        return runner_.add(
            kind, std::move(dataset),
            cellOptions(variant, maxLen, alphabet, qzPorts));
    }

    /** Queue a cell with fully custom options. */
    std::size_t
    add(algos::AlgoKind kind, DatasetPtr dataset,
        const algos::RunOptions &options)
    {
        return runner_.add(kind, std::move(dataset), options);
    }

    /** Queue a registry workload's cell; @return its result index. */
    std::size_t
    add(const algos::Workload &workload, DatasetPtr dataset,
        algos::Variant variant, unsigned qzPorts = 8)
    {
        return runner_.add(workload, std::move(dataset),
                           cellOptions(variant, ~std::size_t{0},
                                       genomics::AlphabetKind::Dna,
                                       qzPorts));
    }

    /** Run all queued cells; callable once per fill. */
    void
    run()
    {
        outcome_ = runner_.run();
        if (outcome_.shard)
            std::cout << "shard " << algos::shardName(*outcome_.shard)
                      << ": ran " << outcome_.ownedCells.size()
                      << " of " << outcome_.results.size()
                      << " cell(s)\n";
        if (outcome_.resumedCells > 0)
            std::cout << "resumed " << outcome_.resumedCells
                      << " cell(s) from checkpoint\n";
        for (const auto &failure : outcome_.failures)
            warn("cell {} [{}] failed after {} attempt(s): {} ({})",
                 failure.cell, failure.key, failure.attempts,
                 failure.message,
                 algos::failureKindName(failure.kind));
    }

    /**
     * Result slot for a cell. A failed cell's slot holds zeroed
     * metrics; tables render it as a zero row (check outcome()).
     */
    const algos::RunResult &
    operator[](std::size_t index) const
    {
        return outcome_.results.at(index);
    }

    const algos::BatchOutcome &outcome() const { return outcome_; }

  private:
    algos::BatchRunner runner_;
    algos::BatchOutcome outcome_;
};

/**
 * Machine-readable results emission: with --json, dump the sweep's
 * BenchReport JSON to that path ("-" = stdout). Called by each bench
 * binary after its human-readable table. Sharded runs emit only the
 * owned cells plus their global indices; qz-merge reassembles the
 * shard files into output byte-identical to an unsharded run (both
 * paths share the algos::toJson(BenchReport) serializer).
 */
inline void
maybeWriteJson(const std::string &benchName,
               const algos::BatchOutcome &outcome,
               const Settings &settings)
{
    if (settings.json.empty())
        return;
    const algos::BenchReport report = algos::makeBenchReport(
        benchName, settings.scale, settings.threads, outcome);
    const std::string json = algos::toJson(report);
    if (settings.json == "-") {
        std::cout << json << "\n";
        return;
    }
    std::ofstream out(settings.json);
    fatal_if(!out, "cannot open --json path '{}' for writing",
             settings.json);
    out << json << "\n";
    out.close();
    fatal_if(!out, "cannot write --json path '{}'", settings.json);
    std::cout << "wrote JSON results to " << settings.json << "\n";
}

/** Build the protein workload as a PairDataset (use case 4). */
inline genomics::PairDataset
proteinDataset(double scale)
{
    genomics::ProteinFamilyConfig config;
    config.familyCount =
        std::max<std::size_t>(1, static_cast<std::size_t>(2 * scale));
    config.membersPerFamily = 4;
    config.ancestorLength = 400;
    genomics::PairDataset ds;
    ds.name = "protein";
    ds.readLength = config.ancestorLength;
    ds.errorRate = config.divergence;
    ds.pairs = genomics::proteinPairWorkload(config);
    return ds;
}

} // namespace quetzal::bench

#endif // QUETZAL_BENCH_BENCH_COMMON_HPP
