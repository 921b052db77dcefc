/**
 * @file
 * Experiment runner: executes one (algorithm, variant, dataset) cell
 * of the paper's evaluation matrix on a fresh simulated core and
 * reports cycles, instruction counts, stall breakdown, memory traffic,
 * and functional agreement with the untimed reference — the common
 * harness underneath every bench binary and the integration tests.
 */
#ifndef QUETZAL_ALGOS_RUNNER_HPP
#define QUETZAL_ALGOS_RUNNER_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "algos/variant.hpp"
#include "algos/wfa_engine.hpp"
#include "genomics/datasets.hpp"
#include "genomics/sequence.hpp"
#include "sim/context.hpp"

namespace quetzal::algos {

/** Which algorithm runs. */
enum class AlgoKind
{
    Wfa,
    BiWfa,
    SneakySnake,
    Nw,
    Swg,
    SsWfa, //!< SneakySnake filter + WFA alignment pipeline (Fig. 14b)
};

/**
 * Display name matching the paper — the registered workload's name
 * (see algos/workload.hpp; the registry is the single source of
 * truth for display names).
 */
std::string_view algoName(AlgoKind kind);

/** Runner knobs. */
struct RunOptions
{
    Variant variant = Variant::Base;
    sim::SystemParams system = sim::SystemParams::baseline();
    bool traceback = true;
    std::size_t maxPairs = ~std::size_t{0};
    /** Length cap for the full-table classic DP (paper-style dataset
     *  constraint to keep simulations tractable). */
    std::size_t maxLen = ~std::size_t{0};
    genomics::AlphabetKind alphabet = genomics::AlphabetKind::Dna;
    std::int64_t ssThreshold = 0; //!< 0 derives from the dataset
    bool verify = true;           //!< compare against the Ref variant

    /**
     * Per-pair resource ceilings for the wavefront engines (zero =
     * unlimited). A breach degrades the pair to the pruned variant
     * and counts it in RunResult::degradedPairs; the Ref golden model
     * always runs unbudgeted.
     */
    ResourceBudget budget;
};

/** One cell of the evaluation matrix. */
struct RunResult
{
    std::string algo;
    std::string variant;
    std::string dataset;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memRequests = 0; //!< demand requests to the L1
    std::uint64_t dramBytes = 0;
    std::uint64_t pairs = 0;
    std::uint64_t accepted = 0;   //!< SS: pairs passing the filter
    std::int64_t totalScore = 0;
    std::uint64_t dpCells = 0;    //!< for GCUPS accounting
    bool outputsMatch = true;     //!< bitwise agreement with Ref

    /**
     * Pairs where a resource budget forced the pruned fallback.
     * Degraded pairs are excluded from the outputsMatch comparison
     * (their score is valid but not guaranteed optimal).
     */
    std::uint64_t degradedPairs = 0;

    /** Stall cycles, indexed by sim::StallKind. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(sim::StallKind::NumKinds)>
        stalls{};

    /** Stall cycles attributed to @p kind. */
    std::uint64_t
    stallCycles(sim::StallKind kind) const
    {
        return stalls[static_cast<std::size_t>(kind)];
    }

    sim::CoreDemand
    demand() const
    {
        return sim::CoreDemand{cycles, dramBytes};
    }

    /** Fraction of cycles attributed to cache accesses. */
    double
    cacheFraction() const
    {
        return cycles == 0
                   ? 0.0
                   : static_cast<double>(
                         stallCycles(sim::StallKind::Cache)) /
                         static_cast<double>(cycles);
    }
};

/**
 * Run @p kind / options over @p dataset on a fresh simulated core.
 * Thin wrapper over the workload registry (algos/workload.hpp):
 * dispatch is workloadFor(kind).run(dataset, options).
 */
RunResult runAlgorithm(AlgoKind kind,
                       const genomics::PairDataset &dataset,
                       const RunOptions &options);

/**
 * Replace the text of every second pair with an unrelated window so
 * the SneakySnake filter has something to reject (SS+WFA pipeline
 * workload).
 */
genomics::PairDataset
mixWithDecoys(const genomics::PairDataset &dataset);

/**
 * Speedup of @p test over @p baseline in simulated cycles.
 *
 * A zero-cycle test run has no defined speedup; returning 0.0 here
 * used to masquerade as "infinitely slow", so the undefined case now
 * yields NaN, which the bench tables render as "n/a"
 * (TextTable::num).
 */
inline double
speedup(const RunResult &baseline, const RunResult &test)
{
    return test.cycles == 0
               ? std::numeric_limits<double>::quiet_NaN()
               : static_cast<double>(baseline.cycles) /
                     static_cast<double>(test.cycles);
}

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_RUNNER_HPP
