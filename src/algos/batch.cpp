#include "algos/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "algos/report.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"

namespace quetzal::algos {

std::optional<ShardSpec>
parseShardSpec(std::string_view spec)
{
    if (spec.empty())
        return std::nullopt;
    const std::size_t slash = spec.find('/');
    fatal_if(slash == std::string_view::npos,
             "shard spec '{}' is not of the form K/N", spec);
    const std::string indexField(spec.substr(0, slash));
    const std::string countField(spec.substr(slash + 1));

    char *end = nullptr;
    const unsigned long long index =
        std::strtoull(indexField.c_str(), &end, 10);
    fatal_if(indexField.empty() || *end != '\0',
             "shard index '{}' is not a positive integer", indexField);
    const unsigned long long count =
        std::strtoull(countField.c_str(), &end, 10);
    fatal_if(countField.empty() || *end != '\0',
             "shard count '{}' is not a positive integer", countField);
    fatal_if(count == 0, "shard count must be at least 1");
    fatal_if(index == 0 || index > count,
             "shard index {} out of range 1..{}", index, count);

    ShardSpec shard;
    shard.index = static_cast<unsigned>(index);
    shard.count = static_cast<unsigned>(count);
    return shard;
}

std::string
shardName(const ShardSpec &shard)
{
    return qformat("{}/{}", shard.index, shard.count);
}

std::size_t
truncateTornCheckpointTail(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0; // first run: the file does not exist yet
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    if (content.empty() || content.back() == '\n')
        return 0; // clean tail: every line is complete
    const std::size_t lastNewline = content.find_last_of('\n');
    const std::size_t keep =
        lastNewline == std::string::npos ? 0 : lastNewline + 1;
    const std::size_t dropped = content.size() - keep;
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) {
        warn("checkpoint '{}': cannot truncate {} torn trailing "
             "byte(s) ({}); resume will skip the partial line but a "
             "subsequent append would corrupt it further",
             path, dropped, ec.message());
        return 0;
    }
    warn("checkpoint '{}': truncated {} byte(s) of torn trailing "
         "line (writer killed mid-record); the affected cell will "
         "re-simulate",
         path, dropped);
    return dropped;
}

namespace {

/**
 * Load a checkpoint file into hash -> RunResult. Each line is one
 * completed cell ({"v":1,"hash":...,"key":...,"result":{...}}).
 * Unparseable lines — typically one partial trailing line left by a
 * killed sweep — are counted and skipped, never fatal: the worst case
 * is re-simulating a cell that was almost recorded.
 */
std::unordered_map<std::string, RunResult>
loadCheckpoint(const std::string &path)
{
    std::unordered_map<std::string, RunResult> cache;
    std::ifstream in(path);
    if (!in)
        return cache; // first run: the file does not exist yet
    std::size_t skipped = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto json = parseJson(line);
        if (!json || !json->isObject()) {
            ++skipped;
            continue;
        }
        const std::string hash = json->getString("hash");
        const JsonValue *result = json->find("result");
        if (hash.empty() || !result) {
            ++skipped;
            continue;
        }
        auto parsed = runResultFromJson(*result);
        if (!parsed) {
            ++skipped;
            continue;
        }
        cache[hash] = std::move(*parsed);
    }
    if (skipped > 0)
        warn("checkpoint '{}': skipped {} unparseable line(s); the "
             "affected cells will re-simulate",
             path, skipped);
    return cache;
}

/** One completed cell as a checkpoint line (no trailing newline). */
std::string
checkpointLine(const std::string &hash, const std::string &key,
               const RunResult &result)
{
    JsonWriter json;
    json.beginObject()
        .field("v", std::uint64_t{1})
        .field("hash", hash)
        .field("key", key)
        .rawField("result", toJson(result))
        .endObject();
    return json.str();
}

} // namespace

BatchOutcome
BatchRunner::run()
{
    std::vector<BatchCell> cells = std::move(cells_);
    cells_.clear();

    BatchOutcome out;
    out.results.resize(cells.size());
    out.shard = policy_.shard;

    // Deterministic round-robin partitioning by submission index.
    // A cell this shard does not own keeps its identity with zeroed
    // metrics — tables render a labeled hole, and the shard's JSON
    // report serializes only the owned slots (ownedCells).
    std::vector<char> owned(cells.size(), 1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (policy_.shard && !policy_.shard->owns(i)) {
            owned[i] = 0;
            RunResult &slot = out.results[i];
            slot.algo = cells[i].workload->name();
            slot.variant =
                std::string(variantName(cells[i].options.variant));
            slot.dataset = cells[i].source->info().name;
        } else {
            out.ownedCells.push_back(i);
        }
    }

    // Canonical identities up front: keys label failure records, and
    // hashes (checkpoint mode only — they digest dataset contents)
    // index the resume cache. Both are shard-invariant: sharding
    // changes which process runs a cell, never its identity.
    std::vector<std::string> keys(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        keys[i] = cellKey(cells[i].workload->name(), *cells[i].source,
                          cells[i].options);

    std::vector<char> done(cells.size(), 0);
    std::vector<std::string> hashes;
    std::ofstream ckptOut;
    if (!policy_.checkpointPath.empty()) {
        hashes.resize(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            hashes[i] = cellHash(cells[i].workload->name(),
                                 *cells[i].source, cells[i].options);
        // A writer killed mid-record leaves a torn trailing line.
        // Drop it before opening for append: appending after a line
        // with no '\n' would concatenate the new record onto the
        // partial one and poison both on the next resume.
        truncateTornCheckpointTail(policy_.checkpointPath);
        const auto cache = loadCheckpoint(policy_.checkpointPath);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!owned[i])
                continue; // another shard's cell; leave it alone
            const auto it = cache.find(hashes[i]);
            if (it == cache.end())
                continue;
            out.results[i] = it->second;
            done[i] = 1;
            ++out.resumedCells;
        }
        ckptOut.open(policy_.checkpointPath, std::ios::app);
        if (!ckptOut)
            warn("cannot open checkpoint '{}' for appending; this "
                 "sweep will not be resumable",
                 policy_.checkpointPath);
    }

    // One mutex covers every shared record: the failure list, the
    // checkpoint stream, the retry counter, and the injection budget.
    // Cells are coarse (whole simulations), so contention is noise.
    // Worker-process-level injection kinds (crash/hang) only fire
    // inside qz-serve workers; the in-process engine arms Throw only.
    std::mutex recordMutex;
    const bool injectHere =
        policy_.inject && policy_.inject->action == FaultAction::Throw;
    unsigned injectionsLeft = injectHere ? policy_.inject->times : 0;
    std::uint64_t retries = 0;

    parallelFor(threads_, cells.size(), [&](std::size_t i) {
        if (!owned[i] || done[i])
            return; // another shard's cell, or resumed from checkpoint
        const BatchCell &cell = cells[i];
        for (unsigned attempt = 1;; ++attempt) {
            try {
                if (injectHere && policy_.inject->cell == i) {
                    bool fire = false;
                    {
                        std::lock_guard<std::mutex> lock(recordMutex);
                        if (injectionsLeft > 0) {
                            --injectionsLeft;
                            fire = true;
                        }
                    }
                    if (fire)
                        throwInjectedFault(*policy_.inject);
                }
                // Each attempt streams from a fresh cursor over the
                // shared (const, thread-safe) source.
                const auto stream = cell.source->fork();
                RunResult result =
                    cell.workload->runStream(*stream, cell.options);
                {
                    std::lock_guard<std::mutex> lock(recordMutex);
                    retries += attempt - 1;
                    if (ckptOut.is_open())
                        ckptOut << checkpointLine(hashes[i], keys[i],
                                                  result)
                                << std::endl; // flush: crash safety
                }
                out.results[i] = std::move(result);
                return;
            } catch (...) {
                const std::exception_ptr error =
                    std::current_exception();
                const FailureKind kind = classifyException(error);
                if (kind == FailureKind::Transient &&
                    attempt < policy_.retry.maxAttempts) {
                    const unsigned delayMs =
                        policy_.retry.backoffMs(attempt);
                    if (delayMs > 0)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(delayMs));
                    continue;
                }
                if (!policy_.isolateFailures)
                    throw; // legacy fail-fast: pool rethrows first

                CellFailure failure;
                failure.cell = i;
                failure.key = keys[i];
                failure.kind = kind;
                failure.message = exceptionMessage(error);
                failure.attempts = attempt;
                // The slot keeps its identity so tables and JSON can
                // label the hole; metrics stay zeroed.
                RunResult &slot = out.results[i];
                slot.algo = cell.workload->name();
                slot.variant =
                    std::string(variantName(cell.options.variant));
                slot.dataset = cell.source->info().name;
                slot.pairs = 0;
                {
                    std::lock_guard<std::mutex> lock(recordMutex);
                    retries += attempt - 1;
                    out.failures.push_back(std::move(failure));
                }
                return;
            }
        }
    });

    // Workers append failures in completion order; submission order
    // is the deterministic one.
    std::sort(out.failures.begin(), out.failures.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.cell < b.cell;
              });
    out.retries = retries;
    return out;
}

BatchOutcome
runBatch(std::vector<BatchCell> cells, unsigned threads)
{
    BatchRunner runner(threads);
    for (auto &cell : cells)
        runner.add(std::move(cell));
    return runner.run();
}

} // namespace quetzal::algos
