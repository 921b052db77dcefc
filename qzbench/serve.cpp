/**
 * @file
 * serve_mix: a closed loop of two outstanding requests against an
 * AlignService pool of two fork/exec'd workers, the way qz-serve
 * starts them. In a seeded order, three WFA requests over a 50-pair
 * range of a 100k-pair 100bp_1 store go out for every 1-pair inline
 * request. Store requests re-open the store in the worker, so serve
 * and store-open dominate here while the align workloads open each
 * store once.
 *
 * Every round sends the same request list; the round with the best
 * throughput gives pairs_per_s and its latencies give p50/p95. Each
 * served result must be byte-identical to runRequestInProcess() for
 * the same request.
 */
#include <algorithm>
#include <cmath>
#include <map>

#include "algos/report.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace qzbench {

namespace algos = quetzal::algos;
namespace genomics = quetzal::genomics;
namespace serve = quetzal::serve;

namespace {

constexpr std::size_t kRangePairs = 50;
constexpr unsigned kWorkers = 2;
constexpr unsigned kOutstanding = 2;
/** Share of the measuring window given to repeated set-up steps. */
constexpr double kSetupShare = 0.15;
/** Ids above this are the pool's warm-up requests. */
constexpr std::uint64_t kWarmupId = 1u << 30;

class ServeRun
{
  public:
    explicit ServeRun(const Options &options) : options_(options) {}

    Outcome run();

  private:
    void makeRequests();
    void setupRepeat(bool keep);
    void referencePass();
    void submit(std::size_t k);
    void onResponse(const serve::ServeResponse &response);
    std::int64_t servedRound(bool traced);
    void inprocPass(bool traced);
    void dropPool(std::unique_ptr<serve::AlignService> &pool);
    void report();
    void reportTrace();

    const Options &options_;
    Tracer tracer_;
    Outcome out_;

    std::vector<genomics::SequencePair> pairs_;
    std::string storePath_;
    std::shared_ptr<const genomics::ReadStore> held_;
    std::vector<serve::ServeRequest> requests_;
    std::uint64_t totalPairs_ = 0;

    std::vector<std::string> refJson_;
    std::uint64_t qzcCycles_ = 0;
    std::uint64_t vecCycles_ = 0;

    Fastest setup_, write_, open_, spawn_, decode_;
    std::uint64_t storeBytes_ = 0;
    std::vector<Fastest> inproc_; //!< per request
    serve::ServeStats stats_;     //!< summed over every pool

    // Best untraced round (its latencies) and best traced round.
    std::int64_t bestNs_ = INT64_MAX;
    std::int64_t bestTracedNs_ = INT64_MAX;
    std::vector<double> bestLatencyMs_;

    // One served round in flight.
    std::size_t next_ = 0;
    std::vector<std::int64_t> submitNs_;
    std::vector<std::int64_t> latencyNs_;
    std::vector<std::uint32_t> requestSpan_;
    std::uint32_t roundSpan_ = Tracer::kNone;
    std::uint64_t warmupsLeft_ = 0;

    // Declared last: destroyed (workers reaped) before what its sink
    // touches.
    std::unique_ptr<serve::AlignService> service_;
};

void
ServeRun::makeRequests()
{
    const std::size_t storePairs = options_.small ? 2000 : 100000;
    const std::size_t count = options_.small ? 24 : 240;
    pairs_ = seededPairs("100bp_1", storePairs, options_.seed);
    storePath_ = (options_.workDir / "serve_100bp_1.qzs").string();

    // Exactly three store-range requests per inline one, in an order
    // drawn from the seed, so every seed sends the same amount of work.
    Rng rng(mix(options_.seed ^ 0x5e47e));
    std::vector<char> inlineAt(count, 0);
    for (std::size_t k = 0; k < count / 4; ++k)
        inlineAt[k] = 1;
    for (std::size_t k = count - 1; k > 0; --k)
        std::swap(inlineAt[k], inlineAt[rng.below(k + 1)]);

    for (std::size_t k = 0; k < count; ++k) {
        serve::ServeRequest request;
        request.id = k + 1;
        request.workload = "WFA";
        request.variant = "qzc";
        if (inlineAt[k]) {
            request.pairs.push_back(pairs_[rng.below(pairs_.size())]);
            totalPairs_ += 1;
        } else {
            request.store = storePath_;
            request.storeFrom = rng.below(pairs_.size() - kRangePairs);
            request.storeTo = request.storeFrom + kRangePairs;
            totalPairs_ += kRangePairs;
        }
        requests_.push_back(std::move(request));
    }
    submitNs_.assign(count, 0);
    latencyNs_.assign(count, 0);
    requestSpan_.assign(count, Tracer::kNone);
    inproc_.assign(count, Fastest{});
}

void
ServeRun::dropPool(std::unique_ptr<serve::AlignService> &pool)
{
    const serve::ServeStats &s = pool->stats();
    stats_.respawns += s.respawns;
    stats_.redispatches += s.redispatches;
    pool.reset(); // closes pipes, reaps the workers
}

void
ServeRun::setupRepeat(bool keep)
{
    // One set-up step: write and open the store, spawn a pool. The kept
    // repeat serves the rounds; the others use a spare path and pool
    // and are dropped again.
    tracer_.setEnabled(options_.trace);
    const std::string path =
        keep ? storePath_
             : (options_.workDir / "serve_100bp_1-spare.qzs").string();
    std::filesystem::remove(path);
    const std::int64_t t0 = nowNs();
    const StoreSetup s =
        writeAndOpenStore(pairs_, "100bp_1", options_.seed, path, tracer_);
    const std::int64_t t1 = nowNs();

    // The pool counts as spawned once each worker has answered a 1-pair
    // request: fork/exec alone returns before the worker can serve.
    const std::uint32_t span =
        tracer_.open("serve.spawn", Tracer::kNone, 0, 0);
    serve::ServeConfig config;
    config.workers = kWorkers;
    config.workerCommand = {options_.selfExe, "--worker"};
    auto pool = std::make_unique<serve::AlignService>(
        config, [this](const serve::ServeResponse &response) {
            onResponse(response);
        });
    warmupsLeft_ = kWorkers;
    for (unsigned w = 0; w < kWorkers; ++w) {
        serve::ServeRequest warmup;
        warmup.id = kWarmupId + w;
        warmup.workload = "WFA";
        warmup.variant = "qzc";
        warmup.pairs.push_back(pairs_[w]);
        pool->submit(std::move(warmup));
    }
    pool->drain();
    const std::int64_t t2 = nowNs();
    tracer_.close(span);
    tracer_.setEnabled(false);
    out_.check(warmupsLeft_ == 0, "pool warm-up requests unanswered");

    write_.add(s.writeNs);
    open_.add(s.openNs);
    spawn_.add(t2 - t1);
    setup_.add(t2 - t0);
    storeBytes_ = s.bytes;
    if (keep) {
        out_.check(storeMatches(s.store, pairs_),
                   "store round trip of 100bp_1");
        service_ = std::move(pool);
    } else {
        dropPool(pool);
        std::filesystem::remove(path);
    }
}

void
ServeRun::referencePass()
{
    // Untimed: the reference results every served and in-process run
    // is compared against, plus each request's VEC counterpart for the
    // simulated speedup.
    for (const serve::ServeRequest &request : requests_) {
        const algos::RunResult ref = serve::runRequestInProcess(request);
        out_.check(ref.outputsMatch && ref.pairs != 0,
                   "request " + std::to_string(request.id) +
                       ": output differs from Ref");
        refJson_.push_back(algos::toJson(ref));
        qzcCycles_ += ref.cycles;
        serve::ServeRequest vec = request;
        vec.variant = "vec";
        const algos::RunResult vecResult = serve::runRequestInProcess(vec);
        out_.check(vecResult.outputsMatch,
                   "request " + std::to_string(request.id) +
                       " (vec): output differs from Ref");
        vecCycles_ += vecResult.cycles;
    }
}

void
ServeRun::submit(std::size_t k)
{
    requestSpan_[k] =
        tracer_.open("serve.request", roundSpan_, requests_[k].id,
                     static_cast<std::uint32_t>(k));
    submitNs_[k] = nowNs();
    service_->submit(requests_[k]);
}

void
ServeRun::onResponse(const serve::ServeResponse &response)
{
    const std::int64_t now = nowNs();
    const bool ok = response.status == serve::ResponseStatus::Ok &&
                    response.result.has_value();
    if (response.id >= kWarmupId) {
        --warmupsLeft_;
        out_.check(ok && response.result->outputsMatch,
                   "warm-up request failed");
        return;
    }
    const std::size_t k = response.id - 1;
    if (response.id == 0 || k >= requests_.size()) {
        out_.check(false, "response for unknown request id " +
                              std::to_string(response.id));
        return;
    }
    latencyNs_[k] = now - submitNs_[k];
    tracer_.close(requestSpan_[k], ok ? response.result->pairs : 0,
                  ok ? response.result->instructions : 0);
    out_.check(ok && algos::toJson(*response.result) == refJson_[k],
               "request " + std::to_string(response.id) +
                   ": served result differs from runRequestInProcess");
    // Closed loop: the next request goes out only when one returns.
    if (next_ < requests_.size())
        submit(next_++);
}

std::int64_t
ServeRun::servedRound(bool traced)
{
    tracer_.setEnabled(traced);
    roundSpan_ = tracer_.open("serve.round", Tracer::kNone, 0, 0);
    const std::int64_t t0 = nowNs();
    next_ = 0;
    while (next_ < kOutstanding && next_ < requests_.size())
        submit(next_++);
    service_->drain();
    const std::int64_t t1 = nowNs();
    tracer_.close(roundSpan_, totalPairs_);
    roundSpan_ = Tracer::kNone;
    tracer_.setEnabled(false);
    return t1 - t0;
}

void
ServeRun::inprocPass(bool traced)
{
    tracer_.setEnabled(traced);
    for (std::size_t k = 0; k < requests_.size(); ++k) {
        const std::uint32_t span = tracer_.open(
            "serve.inproc", Tracer::kNone, requests_[k].id,
            static_cast<std::uint32_t>(k));
        const std::int64_t t0 = nowNs();
        const algos::RunResult result =
            serve::runRequestInProcess(requests_[k]);
        const std::int64_t t1 = nowNs();
        tracer_.close(span, result.pairs, result.instructions);
        inproc_[k].add(t1 - t0);
        out_.check(algos::toJson(result) == refJson_[k],
                   "request " + std::to_string(requests_[k].id) +
                       ": in-process result changed between repeats");
    }
    tracer_.setEnabled(false);
}

Outcome
ServeRun::run()
{
    makeRequests();
    setupRepeat(true);
    // Hold the store open for the in-process passes: runRequestInProcess
    // then reuses this mapping through the per-process store cache.
    held_ = genomics::openStoreShared(storePath_);
    referencePass();

    // Served rounds and in-process passes alternate over the whole
    // window; a traced run also alternates traced and untraced rounds
    // (the tracing-overhead baseline).
    const std::int64_t begin = nowNs();
    const std::int64_t deadline =
        begin + static_cast<std::int64_t>(options_.seconds * 1e9);
    std::int64_t setupSpent = 0;
    unsigned rounds = 0;
    do {
        // Set-up is repeated inside the window too, so its fastest
        // repeat is taken over the same spread of host states.
        if (setupSpent < kSetupShare * (nowNs() - begin)) {
            const std::int64_t t0 = nowNs();
            setupRepeat(false);
            setupSpent += nowNs() - t0;
        }
        const bool traced = options_.trace && rounds % 2 == 0;
        const std::int64_t ns = servedRound(traced);
        if (traced) {
            bestTracedNs_ = std::min(bestTracedNs_, ns);
            decode_.add(decodeNs(held_, tracer_, 0));
        } else if (ns < bestNs_) {
            bestNs_ = ns;
            bestLatencyMs_.clear();
            for (const std::int64_t latency : latencyNs_)
                bestLatencyMs_.push_back(static_cast<double>(latency) / 1e6);
        }
        inprocPass(traced);
        ++rounds;
    } while (nowNs() < deadline || (options_.trace && rounds < 2));
    dropPool(service_);

    if (options_.trace) {
        reportTrace();
        tracer_.write(options_.workDir.parent_path() /
                      "trace-serve_mix.jsonl");
    } else {
        report();
    }
    out_.notes.push_back(
        "latency: best-throughput round of " +
        std::to_string(bestLatencyMs_.size()) + " requests (" +
        std::to_string(bestLatencyMs_.size() / 20) + " beyond p95), " +
        std::to_string(rounds) + " rounds, " +
        std::to_string(setup_.repeats) + " set-up repeats");
    return std::move(out_);
}

void
ServeRun::report()
{
    const double m =
        static_cast<double>(vecCycles_) / static_cast<double>(qzcCycles_);
    const double p = paperSpeedupShort("WFA");
    out_.add("setup_s", static_cast<double>(setup_.ns) / 1e9);
    out_.add("pairs_per_s", static_cast<double>(totalPairs_) * 1e9 /
                                static_cast<double>(bestNs_));
    out_.add("latency_p50_ms", quantile(bestLatencyMs_, 0.50));
    out_.add("latency_p95_ms", quantile(bestLatencyMs_, 0.95));
    const PeakRss rss = peakRss();
    out_.add("peak_rss_mb", rss.totalMiB());
    out_.notes.push_back("peak RSS: " + std::to_string(rss.ownMiB) +
                         " MiB own + " + std::to_string(rss.workerMiB) +
                         " MiB largest worker");
    out_.add("ok_frac", out_.okFrac());
    out_.add("sim_cycles_per_pair", static_cast<double>(qzcCycles_) /
                                        static_cast<double>(totalPairs_));
    out_.add("qzc_speedup_vs_vec", m);
    out_.add("speedup_err_vs_paper", std::max(m / p, p / m));
}

void
ServeRun::reportTrace()
{
    out_.add("genomics.store_write_mb_per_s",
             static_cast<double>(storeBytes_) / 1e6 /
                 (static_cast<double>(write_.ns) / 1e9));
    out_.add("genomics.store_open_ms", static_cast<double>(open_.ns) / 1e6);
    out_.add("genomics.decode_ns_per_pair",
             static_cast<double>(decode_.ns) /
                 static_cast<double>(pairs_.size()));
    std::vector<double> inprocMs;
    for (const Fastest &f : inproc_)
        inprocMs.push_back(static_cast<double>(f.ns) / 1e6);
    const double inproc = quantile(inprocMs, 0.50);
    out_.add("serve.inproc_ms", inproc);
    out_.add("serve.self_ms", quantile(bestLatencyMs_, 0.50) - inproc);
    out_.add("serve.spawn_ms", static_cast<double>(spawn_.ns) / 1e6);
    out_.add("serve.respawns", static_cast<double>(stats_.respawns));
    out_.add("serve.redispatches",
             static_cast<double>(stats_.redispatches));
    out_.add("trace.overhead_frac", static_cast<double>(bestTracedNs_) /
                                            static_cast<double>(bestNs_) -
                                        1.0);
}

} // namespace

Outcome
runServe(const Options &options)
{
    ServeRun run(options);
    return run.run();
}

} // namespace qzbench
