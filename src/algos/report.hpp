/**
 * @file
 * Machine-readable reporting for experiment results: RunResult and
 * whole-sweep BenchReport serialization to JSON (for automation
 * around the bench binaries), the shard-merge that reassembles a
 * partitioned sweep, and a per-opcode instruction profile of a
 * simulated core.
 */
#ifndef QUETZAL_ALGOS_REPORT_HPP
#define QUETZAL_ALGOS_REPORT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algos/batch.hpp"
#include "algos/faults.hpp"
#include "algos/runner.hpp"
#include "common/json.hpp"
#include "sim/pipeline.hpp"

namespace quetzal::algos {

/** Serialize one evaluation cell to a JSON object string. */
std::string toJson(const RunResult &result);

/** Serialize one cell failure record to a JSON object string. */
std::string toJson(const CellFailure &failure);

/**
 * Rebuild a RunResult from a parsed toJson() object (checkpoint
 * resume). Returns nullopt when required members are missing or
 * mistyped — the loader then re-simulates the cell instead.
 */
std::optional<RunResult> runResultFromJson(const JsonValue &json);

/** Rebuild a CellFailure from a parsed toJson() object. */
std::optional<CellFailure> cellFailureFromJson(const JsonValue &json);

/**
 * One bench sweep's machine-readable report — what a bench's --json
 * emits. An unsharded run serializes every cell; a --shard K/N run
 * serializes only the owned slots plus their global indices
 * ("shard" and "cells" members), which mergeShardReports() uses to
 * reassemble output byte-identical to the unsharded run.
 */
struct BenchReport
{
    std::string bench;
    double scale = 1.0;
    std::uint64_t threads = 0;
    std::uint64_t resumedCells = 0;
    std::uint64_t retries = 0;

    /** Set on per-shard reports only. */
    std::optional<ShardSpec> shard;
    /** Global cell indices of results[] (per-shard reports only). */
    std::vector<std::uint64_t> cells;

    std::vector<RunResult> results;
    std::vector<CellFailure> failures;
};

/**
 * Assemble the report of one finished sweep. When the outcome was
 * sharded, only the owned result slots are included (with their
 * global indices); failure records always carry global indices.
 */
BenchReport makeBenchReport(std::string bench, double scale,
                            std::uint64_t threads,
                            const BatchOutcome &outcome);

/** Serialize a sweep report to a JSON object string. */
std::string toJson(const BenchReport &report);

/** Rebuild a BenchReport from parsed toJson() output (qz-merge). */
std::optional<BenchReport> benchReportFromJson(const JsonValue &json);

/**
 * Merge the per-shard reports of one partitioned sweep into the
 * report an unsharded run would have produced — byte-identical once
 * serialized with toJson(). All N shards must be present, agree on
 * bench/scale/threads, and jointly cover every cell exactly once;
 * anything else is a fatal() diagnostic.
 */
BenchReport mergeShardReports(std::vector<BenchReport> shards);

/** Serialize a pipeline's per-opcode instruction profile. */
std::string instructionProfileJson(const sim::Pipeline &pipeline);

} // namespace quetzal::algos

#endif // QUETZAL_ALGOS_REPORT_HPP
