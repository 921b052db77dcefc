#include "algos/report.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace quetzal::algos {

std::string
toJson(const RunResult &result)
{
    JsonWriter json;
    json.beginObject()
        .field("algo", result.algo)
        .field("variant", result.variant)
        .field("dataset", result.dataset)
        .field("cycles", result.cycles)
        .field("instructions", result.instructions)
        .field("mem_requests", result.memRequests)
        .field("dram_bytes", result.dramBytes)
        .field("pairs", result.pairs)
        .field("accepted", result.accepted)
        .field("total_score", result.totalScore)
        .field("dp_cells", result.dpCells)
        .field("outputs_match", result.outputsMatch)
        .field("degraded_pairs", result.degradedPairs);
    json.beginObject("stalls")
        .field("frontend", result.stallCycles(sim::StallKind::Frontend))
        .field("compute", result.stallCycles(sim::StallKind::Compute))
        .field("cache", result.stallCycles(sim::StallKind::Cache))
        .field("structural", result.stallCycles(sim::StallKind::Struct))
        .endObject();
    json.endObject();
    return json.str();
}

std::string
toJson(const CellFailure &failure)
{
    JsonWriter json;
    json.beginObject()
        .field("cell", static_cast<std::uint64_t>(failure.cell))
        .field("key", failure.key)
        .field("kind", failureKindName(failure.kind))
        .field("message", failure.message)
        .field("attempts", std::uint64_t{failure.attempts})
        .endObject();
    return json.str();
}

std::optional<RunResult>
runResultFromJson(const JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    // The identity strings and the cycle count are mandatory; metric
    // fields default to zero so the format can grow new members
    // without invalidating older checkpoints.
    const JsonValue *algo = json.find("algo");
    const JsonValue *variant = json.find("variant");
    const JsonValue *dataset = json.find("dataset");
    const JsonValue *cycles = json.find("cycles");
    if (!algo || !algo->isString() || !variant ||
        !variant->isString() || !dataset || !dataset->isString() ||
        !cycles || !cycles->isNumber())
        return std::nullopt;

    RunResult result;
    result.algo = algo->asString();
    result.variant = variant->asString();
    result.dataset = dataset->asString();
    result.cycles = cycles->asUint();
    result.instructions = json.getUint("instructions");
    result.memRequests = json.getUint("mem_requests");
    result.dramBytes = json.getUint("dram_bytes");
    result.pairs = json.getUint("pairs");
    result.accepted = json.getUint("accepted");
    result.totalScore = json.getInt("total_score");
    result.dpCells = json.getUint("dp_cells");
    result.outputsMatch = json.getBool("outputs_match", true);
    result.degradedPairs = json.getUint("degraded_pairs");
    if (const JsonValue *stalls = json.find("stalls");
        stalls && stalls->isObject()) {
        auto slot = [&result](sim::StallKind kind) -> std::uint64_t & {
            return result.stalls[static_cast<std::size_t>(kind)];
        };
        slot(sim::StallKind::Frontend) = stalls->getUint("frontend");
        slot(sim::StallKind::Compute) = stalls->getUint("compute");
        slot(sim::StallKind::Cache) = stalls->getUint("cache");
        slot(sim::StallKind::Struct) = stalls->getUint("structural");
    }
    return result;
}

std::optional<CellFailure>
cellFailureFromJson(const JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    const JsonValue *cell = json.find("cell");
    const JsonValue *key = json.find("key");
    const JsonValue *kind = json.find("kind");
    if (!cell || !cell->isNumber() || !key || !key->isString() ||
        !kind || !kind->isString())
        return std::nullopt;
    const auto parsedKind = failureKindFromName(kind->asString());
    if (!parsedKind)
        return std::nullopt;

    CellFailure failure;
    failure.cell = static_cast<std::size_t>(cell->asUint());
    failure.key = key->asString();
    failure.kind = *parsedKind;
    failure.message = json.getString("message");
    failure.attempts =
        static_cast<unsigned>(json.getUint("attempts", 1));
    return failure;
}

BenchReport
makeBenchReport(std::string bench, double scale, std::uint64_t threads,
                const BatchOutcome &outcome)
{
    BenchReport report;
    report.bench = std::move(bench);
    report.scale = scale;
    report.threads = threads;
    report.resumedCells = outcome.resumedCells;
    report.retries = outcome.retries;
    report.failures = outcome.failures;
    if (outcome.shard) {
        report.shard = outcome.shard;
        for (const std::size_t cell : outcome.ownedCells) {
            report.cells.push_back(cell);
            report.results.push_back(outcome.results[cell]);
        }
    } else {
        report.results = outcome.results;
    }
    return report;
}

std::string
toJson(const BenchReport &report)
{
    JsonWriter json;
    json.beginObject()
        .field("bench", report.bench)
        .field("scale", report.scale)
        .field("threads", report.threads)
        .field("resumed_cells", report.resumedCells)
        .field("retries", report.retries);
    if (report.shard) {
        json.field("shard", shardName(*report.shard));
        json.beginArray("cells");
        for (const std::uint64_t cell : report.cells)
            json.rawValue(std::to_string(cell));
        json.endArray();
    }
    json.beginArray("results");
    for (const auto &result : report.results)
        json.rawValue(toJson(result));
    json.endArray();
    json.beginArray("failures");
    for (const auto &failure : report.failures)
        json.rawValue(toJson(failure));
    json.endArray();
    json.endObject();
    return json.str();
}

std::optional<BenchReport>
benchReportFromJson(const JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    const JsonValue *bench = json.find("bench");
    const JsonValue *results = json.find("results");
    if (!bench || !bench->isString() || !results ||
        !results->isArray())
        return std::nullopt;

    BenchReport report;
    report.bench = bench->asString();
    if (const JsonValue *scale = json.find("scale");
        scale && scale->isNumber())
        report.scale = scale->asDouble();
    report.threads = json.getUint("threads");
    report.resumedCells = json.getUint("resumed_cells");
    report.retries = json.getUint("retries");
    if (const std::string shard = json.getString("shard");
        !shard.empty())
        report.shard = parseShardSpec(shard);
    if (const JsonValue *cells = json.find("cells");
        cells && cells->isArray()) {
        for (const JsonValue &cell : cells->items()) {
            if (!cell.isNumber())
                return std::nullopt;
            report.cells.push_back(cell.asUint());
        }
    }
    for (const JsonValue &item : results->items()) {
        auto result = runResultFromJson(item);
        if (!result)
            return std::nullopt;
        report.results.push_back(std::move(*result));
    }
    if (const JsonValue *failures = json.find("failures");
        failures && failures->isArray()) {
        for (const JsonValue &item : failures->items()) {
            auto failure = cellFailureFromJson(item);
            if (!failure)
                return std::nullopt;
            report.failures.push_back(std::move(*failure));
        }
    }
    return report;
}

BenchReport
mergeShardReports(std::vector<BenchReport> shards)
{
    fatal_if(shards.empty(), "no shard reports to merge");
    for (const BenchReport &shard : shards)
        fatal_if(!shard.shard,
                 "report '{}' has no shard member — it is already an "
                 "unsharded report",
                 shard.bench);
    std::sort(shards.begin(), shards.end(),
              [](const BenchReport &a, const BenchReport &b) {
                  return a.shard->index < b.shard->index;
              });

    const BenchReport &first = shards.front();
    const unsigned count = first.shard->count;
    fatal_if(shards.size() != count,
             "sweep was split {} ways but {} shard report(s) given",
             count, shards.size());

    std::size_t total = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const BenchReport &shard = shards[s];
        fatal_if(shard.shard->count != count,
                 "shard {} says {} total shards, shard {} says {}",
                 first.shard->index, count, shard.shard->index,
                 shard.shard->count);
        fatal_if(shard.shard->index != s + 1,
                 "shard {}/{} is missing or duplicated", s + 1, count);
        fatal_if(shard.bench != first.bench,
                 "cannot merge different benches ('{}' vs '{}')",
                 first.bench, shard.bench);
        fatal_if(shard.scale != first.scale,
                 "cannot merge different scales ({} vs {})",
                 first.scale, shard.scale);
        fatal_if(shard.threads != first.threads,
                 "cannot merge different thread counts ({} vs {})",
                 first.threads, shard.threads);
        fatal_if(shard.cells.size() != shard.results.size(),
                 "shard {}/{}: {} cell index(es) for {} result(s)",
                 shard.shard->index, count, shard.cells.size(),
                 shard.results.size());
        total += shard.results.size();
    }

    BenchReport merged;
    merged.bench = first.bench;
    merged.scale = first.scale;
    merged.threads = first.threads;
    merged.results.resize(total);
    std::vector<char> filled(total, 0);
    for (BenchReport &shard : shards) {
        merged.resumedCells += shard.resumedCells;
        merged.retries += shard.retries;
        for (std::size_t j = 0; j < shard.cells.size(); ++j) {
            const std::uint64_t cell = shard.cells[j];
            fatal_if(cell >= total,
                     "shard {}/{} claims cell {} of a {}-cell sweep",
                     shard.shard->index, count, cell, total);
            fatal_if(filled[cell],
                     "cell {} is claimed by more than one shard", cell);
            filled[cell] = 1;
            merged.results[cell] = std::move(shard.results[j]);
        }
        for (CellFailure &failure : shard.failures)
            merged.failures.push_back(std::move(failure));
    }
    for (std::size_t i = 0; i < total; ++i)
        fatal_if(!filled[i], "cell {} is covered by no shard", i);
    std::sort(merged.failures.begin(), merged.failures.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.cell < b.cell;
              });
    return merged;
}

std::string
instructionProfileJson(const sim::Pipeline &pipeline)
{
    JsonWriter json;
    json.beginObject()
        .field("instructions", pipeline.instructions())
        .field("cycles", pipeline.totalCycles());
    json.beginObject("op_counts");
    for (int c = 0; c < static_cast<int>(sim::OpClass::NumClasses);
         ++c) {
        const auto cls = static_cast<sim::OpClass>(c);
        const auto count = pipeline.opCount(cls);
        if (count > 0)
            json.field(sim::opClassName(cls), count);
    }
    json.endObject();
    json.endObject();
    return json.str();
}

} // namespace quetzal::algos
