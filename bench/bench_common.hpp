/**
 * @file
 * Shared plumbing for the per-figure/per-table bench binaries.
 *
 * Each binary regenerates one table or figure of the paper: it builds
 * the workload, queues the relevant (algorithm, variant, dataset)
 * cells on the batch engine, and prints the same rows/series the
 * paper reports.
 *
 * Environment knobs:
 *  - QZ_BENCH_SCALE   dataset scale (default 1.0; 0.2 quick, 4 long)
 *  - QZ_BENCH_THREADS harness workers (default hardware_concurrency)
 *  - QZ_BENCH_JSON    dump the RunResult rows as JSON: a path, or "-"
 *                     for stdout after the table
 *  - QZ_BENCH_CHECKPOINT  append completed cells to this file and skip
 *                     cells already in it on restart (resumable sweeps)
 *  - QZ_FAULT_INJECT  deterministic fault injection, CELL:KIND[:TIMES]
 *                     (docs/ROBUSTNESS.md)
 *  - QZ_BENCH_SHARD   run as shard K/N of a multi-process sweep: only
 *                     cells with index % N == K-1 execute, and the
 *                     JSON report carries their global indices so
 *                     qz-merge can reassemble the unsharded output
 *                     byte-identically (docs/SIMULATOR.md)
 *  - QZ_BENCH_LIST    =1: print every registered workload with its
 *                     variants/datasets and exit; unset, empty or 0
 *                     runs the bench
 *
 * A malformed or non-positive QZ_BENCH_SCALE/QZ_BENCH_THREADS, a
 * QZ_BENCH_LIST other than 0/1, or a QZ_BENCH_JSON path that cannot
 * be written is a fatal error, never a silent default: every main()
 * runs its body through runMain(), which prints the error once and
 * exits 1. These binaries report simulated metrics; host throughput
 * is measured by the benchmark (python3 qzbench/run.py, see
 * qzbench/NOTES.md).
 */
#ifndef QUETZAL_BENCH_BENCH_COMMON_HPP
#define QUETZAL_BENCH_BENCH_COMMON_HPP

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algos/batch.hpp"
#include "algos/report.hpp"
#include "algos/runner.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "genomics/datasets.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/protein.hpp"
#include "genomics/store.hpp"

namespace quetzal::bench {

/**
 * A bench main()'s top level: run @p body and return its status. An
 * error that escapes it is printed once (FatalError and PanicError
 * messages carry their "fatal: "/"panic: " prefix) and becomes exit
 * status 1 instead of std::terminate.
 */
template <typename Body>
int
runMain(Body &&body)
{
    try {
        return body();
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
}

/** Dataset scale factor from QZ_BENCH_SCALE (default 1.0). */
inline double
benchScale()
{
    const char *env = std::getenv("QZ_BENCH_SCALE");
    if (!env)
        return 1.0;
    errno = 0;
    char *end = nullptr;
    const double scale = std::strtod(env, &end);
    fatal_if(*env == '\0' || *end != '\0' || errno == ERANGE ||
                 !std::isfinite(scale) || scale <= 0,
             "QZ_BENCH_SCALE='{}' is not a positive number", env);
    return scale;
}

/** Harness worker count from QZ_BENCH_THREADS (default: all cores). */
inline unsigned
benchThreads()
{
    const char *env = std::getenv("QZ_BENCH_THREADS");
    if (!env)
        return ThreadPool::hardwareThreads();
    errno = 0;
    char *end = nullptr;
    const long n = std::strtol(env, &end, 10);
    fatal_if(*env == '\0' || *end != '\0' || errno == ERANGE || n <= 0 ||
                 n > std::numeric_limits<unsigned>::max(),
             "QZ_BENCH_THREADS='{}' is not a positive integer", env);
    return static_cast<unsigned>(n);
}

/** QZ_BENCH_LIST: unset, empty or "0" runs the bench, "1" lists. */
inline bool
benchList()
{
    const char *env = std::getenv("QZ_BENCH_LIST");
    const std::string_view value = env ? env : "";
    fatal_if(value != "" && value != "0" && value != "1",
             "QZ_BENCH_LIST='{}' is not 0 or 1", value);
    return value == "1";
}

/** Print the experiment banner with the Table I system summary. */
inline void
banner(const std::string &title)
{
    if (benchList()) {
        std::cout << algos::workloadListing();
        std::exit(0);
    }
    // Parse the knobs first: a bad one must not leave half a banner.
    const double scale = benchScale();
    const unsigned threads = benchThreads();
    std::cout << "==================================================\n"
              << title << "\n"
              << "Simulated system (Table I): 2.0 GHz A64FX-like, "
                 "512-bit SVE,\n"
              << "  L1D 64KB/8w lt=4, L2 8MB/16w lt=37, HBM2; "
                 "QUETZAL 2x8KB QBUFFERs\n"
              << "Dataset scale: " << scale
              << " (QZ_BENCH_SCALE), harness threads: " << threads
              << " (QZ_BENCH_THREADS)\n"
              << "==================================================\n";
}

/** Shared-ownership dataset handle for batch cells. */
using DatasetPtr = std::shared_ptr<const genomics::PairDataset>;

/**
 * Shared-ownership streaming source for batch cells. Cells hold
 * sources; a DatasetPtr is the zero-copy in-RAM special case the
 * engine wraps automatically.
 */
using SourcePtr = std::shared_ptr<const genomics::PairSource>;

/** Materialize a catalog dataset behind a shared handle. */
inline DatasetPtr
makeDatasetPtr(std::string_view name, double scale = benchScale())
{
    return std::make_shared<const genomics::PairDataset>(
        genomics::makeDataset(name, scale));
}

/**
 * A catalog dataset as a bounded-memory generator stream — the pairs
 * are byte-identical to makeDatasetPtr()'s, so results (and
 * checkpoints) are interchangeable between the two.
 */
inline SourcePtr
makeSourcePtr(std::string_view name, double scale = benchScale())
{
    return std::make_shared<genomics::GeneratorPairSource>(name,
                                                           scale);
}

/** A read-store range (`FILE[:FROM-TO]`, docs/STORE.md) as a source. */
inline SourcePtr
makeStoreSourcePtr(const std::string &target)
{
    return SourcePtr(genomics::openStoreSource(
        genomics::parseStoreTarget(target)));
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

/** Run one algorithm/variant/dataset cell without verification. */
inline algos::RunResult
runCell(algos::AlgoKind kind, const genomics::PairDataset &dataset,
        algos::Variant variant,
        std::size_t maxLen = ~std::size_t{0},
        genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna,
        unsigned qzPorts = 8)
{
    return algos::runAlgorithm(
        kind, dataset, cellOptions(variant, maxLen, alphabet, qzPorts));
}

/**
 * The bench binaries' front end to algos::BatchRunner: queue every
 * cell of the figure first, then run() once across QZ_BENCH_THREADS
 * workers and read results back by the indices add() returned.
 * Results are deterministic and bitwise identical to a serial run.
 */
class CellBatch
{
  public:
    CellBatch() : runner_(benchThreads())
    {
        if (const char *env = std::getenv("QZ_BENCH_CHECKPOINT");
            env && *env)
            runner_.setCheckpoint(env);
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

    /** Queue a registry workload's cell with fully custom options. */
    std::size_t
    add(const algos::Workload &workload, DatasetPtr dataset,
        const algos::RunOptions &options)
    {
        return runner_.add(workload, std::move(dataset), options);
    }

    /** Queue a streaming-source cell (store range or generator). */
    std::size_t
    add(algos::AlgoKind kind, SourcePtr source,
        algos::Variant variant, std::size_t maxLen = ~std::size_t{0},
        genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna,
        unsigned qzPorts = 8)
    {
        return runner_.add(
            kind, std::move(source),
            cellOptions(variant, maxLen, alphabet, qzPorts));
    }

    /** Streaming-source cell with fully custom options. */
    std::size_t
    add(const algos::Workload &workload, SourcePtr source,
        const algos::RunOptions &options)
    {
        return runner_.add(workload, std::move(source), options);
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

    const std::vector<algos::RunResult> &results() const
    {
        return outcome_.results;
    }

    const algos::BatchOutcome &outcome() const { return outcome_; }

  private:
    algos::BatchRunner runner_;
    algos::BatchOutcome outcome_;
};

/**
 * Machine-readable results emission: when QZ_BENCH_JSON is set, dump
 * the sweep's BenchReport JSON to that path ("-" = stdout). Called by
 * each bench binary after its human-readable table. Sharded runs emit
 * only the owned cells plus their global indices; qz-merge reassembles
 * the shard files into output byte-identical to an unsharded run
 * (both paths share the algos::toJson(BenchReport) serializer).
 */
inline void
maybeWriteJson(const std::string &benchName,
               const algos::BatchOutcome &outcome)
{
    const char *env = std::getenv("QZ_BENCH_JSON");
    if (!env || !*env)
        return;
    const algos::BenchReport report = algos::makeBenchReport(
        benchName, benchScale(), benchThreads(), outcome);
    const std::string json = algos::toJson(report);
    if (std::string_view(env) == "-") {
        std::cout << json << "\n";
        return;
    }
    std::ofstream out(env);
    fatal_if(!out, "cannot open QZ_BENCH_JSON path '{}' for writing",
             env);
    out << json << "\n";
    out.close();
    fatal_if(!out, "cannot write QZ_BENCH_JSON path '{}'", env);
    std::cout << "wrote JSON results to " << env << "\n";
}

/**
 * Legacy overload for benches that only have the result rows: wrap
 * them in a shard-less outcome so every emitter shares one format.
 */
inline void
maybeWriteJson(const std::string &benchName,
               const std::vector<algos::RunResult> &results)
{
    algos::BatchOutcome outcome;
    outcome.results = results;
    for (std::size_t i = 0; i < results.size(); ++i)
        outcome.ownedCells.push_back(i);
    maybeWriteJson(benchName, outcome);
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
