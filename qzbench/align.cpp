/**
 * @file
 * short_align: store → Workload::runStream → RunResult for a fixed
 * set of cells, where a cell is one (algorithm, variant) pair run over
 * a fixed prefix of the 100bp_1 and 250bp_1 stores.
 *
 * Host time is estimated from fastest repeats: every (cell, dataset)
 * batch is re-run round-robin for the whole measuring window, and each
 * pair of each batch contributes its fastest repeat. On the shared
 * VMs this benchmark targets, one timing of the same work varies by up
 * to 1.7x as other tenants load the memory system, in periods of tens
 * of milliseconds; a repeat shorter than those periods is sometimes
 * timed entirely in a quiet one (NOTES.md).
 */
#include <algorithm>
#include <cmath>
#include <map>

#include "algos/report.hpp"
#include "algos/workload.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "genomics/pairsource.hpp"
#include "genomics/store.hpp"

namespace qzbench {

namespace algos = quetzal::algos;
namespace genomics = quetzal::genomics;

namespace {

struct CellSpec
{
    const char *algo;
    algos::Variant variant;
    const char *tag;
    std::size_t pairs[2];      //!< prefix of each dataset's store
    std::size_t smallPairs[2]; //!< the same under --small
};

struct DatasetSpec
{
    const char *catalog;
    std::size_t storePairs;
    std::size_t smallStorePairs;
};

constexpr algos::Variant kQzc = algos::Variant::QzC;
constexpr algos::Variant kVec = algos::Variant::Vec;

constexpr DatasetSpec kDatasets[2] = {{"100bp_1", 20000, 400},
                                      {"250bp_1", 8000, 160}};

// SW costs ~1 ms/pair against ~40 us for WFA, so it gets a shorter
// prefix; BiWFA simulates identically to WFA on short reads.
constexpr CellSpec kCells[] = {
    {"WFA", kQzc, "qzc", {64, 64}, {8, 8}},
    {"WFA", kVec, "vec", {64, 64}, {8, 8}},
    {"SS", kQzc, "qzc", {64, 64}, {8, 8}},
    {"SS", kVec, "vec", {64, 64}, {8, 8}},
    {"SW", kQzc, "qzc", {4, 2}, {1, 1}},
};
constexpr std::size_t kNumCells = std::size(kCells);

/** Share of the measuring window given to repeated set-up steps. */
constexpr double kSetupShare = 0.1;

/**
 * PairSource handed to Workload::runStream: forwards to a
 * StorePairSource one pair per next() call, so the time between two
 * calls is the time the workload spent on one pair. Records those
 * boundaries as timestamps (per-pair latency) and, when tracing, as
 * "genomics.next" spans under the enclosing runStream span.
 */
class TimedSource final : public genomics::PairSource
{
  public:
    TimedSource(std::shared_ptr<const genomics::ReadStore> store,
                std::size_t count, Tracer &tracer, std::uint32_t parent,
                std::uint64_t id, std::uint32_t group,
                std::vector<std::int64_t> &marks)
        : inner_(std::move(store), 0, count), one_(1), tracer_(tracer),
          parent_(parent), id_(id), group_(group), marks_(marks)
    {
    }

    const genomics::SourceInfo &info() const override
    {
        return inner_.info();
    }
    std::size_t size() const override { return inner_.size(); }
    void rewind() override { inner_.rewind(); }

    std::unique_ptr<genomics::PairSource>
    slice(std::size_t from, std::size_t to) const override
    {
        return inner_.slice(from, to);
    }

    std::size_t
    next(genomics::PairBatch &batch) override
    {
        marks_.push_back(nowNs()); // previous pair done
        const std::uint32_t span =
            tracer_.open("genomics.next", parent_, id_, group_);
        batch.clear();
        const std::size_t got = inner_.next(one_);
        if (got != 0) {
            const genomics::PairView &view = one_.views().front();
            genomics::SequencePair pair;
            pair.pattern = view.pattern;
            pair.text = view.text;
            pair.alphabet = view.alphabet;
            pair.trueEdits = view.trueEdits;
            batch.pushOwned(std::move(pair));
        }
        tracer_.close(span, got);
        marks_.push_back(nowNs()); // next pair starts
        return got;
    }

  private:
    genomics::StorePairSource inner_;
    genomics::PairBatch one_;
    Tracer &tracer_;
    std::uint32_t parent_;
    std::uint64_t id_;
    std::uint32_t group_;
    std::vector<std::int64_t> &marks_;
};

/** One (cell, dataset) batch and everything measured about it. */
struct Batch
{
    std::size_t cell = 0;
    std::size_t dataset = 0;
    std::size_t pairs = 0;

    algos::RunResult first; //!< simulated counters of the first repeat
    std::string firstJson;

    Fastest on;       //!< verify on, untraced: whole call
    Fastest onTraced; //!< verify on, traced: whole call
    Fastest onSelf;   //!< verify on, traced: runStream self time
    Fastest off;      //!< verify off, untraced: whole call
    // Verify on, untraced, split at the pair boundaries TimedSource
    // marks: each pair's fastest repeat, plus the fastest remainder
    // (core set-up, decode, counter harvest).
    std::vector<std::int64_t> pairMinNs;
    Fastest rest;

    /** Host time of the batch: fastest remainder plus fastest pairs. */
    std::int64_t
    fastestNs() const
    {
        std::int64_t ns = rest.ns;
        for (const std::int64_t pair : pairMinNs)
            ns += pair;
        return ns;
    }
};

class AlignRun
{
  public:
    explicit AlignRun(const Options &options) : options_(options) {}

    Outcome run();

  private:
    void setupRepeat(bool keep);
    void repeat(Batch &batch, bool verify, bool traced);
    void report();
    void reportTrace();

    const Options &options_;
    Tracer tracer_;
    Outcome out_;

    std::vector<genomics::SequencePair> pairs_[2];
    std::shared_ptr<const genomics::ReadStore> stores_[2];
    Fastest setup_, write_, open_;
    std::int64_t setupSpent_ = 0; //!< in-window set-up time so far
    std::uint64_t storeBytes_ = 0;
    Fastest decode_;
    std::vector<Batch> batches_;
    std::vector<std::int64_t> marks_;
    std::uint64_t nextId_ = 1;
};

void
AlignRun::setupRepeat(bool keep)
{
    // One set-up step: write both stores and open them. The kept repeat
    // feeds the cells; the others write to spare paths and are dropped.
    tracer_.setEnabled(options_.trace);
    std::int64_t writeNs = 0;
    std::int64_t openNs = 0;
    storeBytes_ = 0;
    for (std::size_t d = 0; d < 2; ++d) {
        const std::filesystem::path path =
            options_.workDir / (std::string(kDatasets[d].catalog) +
                                (keep ? ".qzs" : "-spare.qzs"));
        std::filesystem::remove(path);
        const StoreSetup s =
            writeAndOpenStore(pairs_[d], kDatasets[d].catalog,
                              options_.seed, path, tracer_);
        if (keep)
            stores_[d] = s.store;
        writeNs += s.writeNs;
        openNs += s.openNs;
        storeBytes_ += s.bytes;
    }
    tracer_.setEnabled(false);
    write_.add(writeNs);
    open_.add(openNs);
    setup_.add(writeNs + openNs);
}

void
AlignRun::repeat(Batch &batch, bool verify, bool traced)
{
    const CellSpec &cell = kCells[batch.cell];
    const algos::Workload &workload = algos::workloadByName(cell.algo);
    algos::RunOptions options;
    options.variant = cell.variant;
    options.verify = verify;

    tracer_.setEnabled(traced);
    const std::uint64_t id = nextId_++;
    const auto group = static_cast<std::uint32_t>(&batch - batches_.data());
    marks_.clear();
    const std::uint32_t span =
        tracer_.open("algos.runStream", Tracer::kNone, id, group);
    TimedSource source(stores_[batch.dataset], batch.pairs, tracer_, span,
                       id, group, marks_);
    const std::int64_t t0 = nowNs();
    const algos::RunResult result = workload.runStream(source, options);
    const std::int64_t t1 = nowNs();
    tracer_.close(span, result.pairs, result.instructions);
    tracer_.setEnabled(false);

    // Correctness: Ref agreement (verify on), the full batch ran, and
    // the simulated counters repeat exactly.
    const std::string json = algos::toJson(result);
    if (batch.firstJson.empty()) {
        batch.first = result;
        batch.firstJson = json;
    }
    const std::string what =
        result.algo + "-" + cell.tag + " on " + result.dataset;
    out_.check(result.pairs == batch.pairs && result.outputsMatch,
               what + ": output differs from Ref");
    out_.check(json == batch.firstJson,
               what + ": simulated counters changed between repeats");

    const std::int64_t ns = t1 - t0;
    if (!verify) {
        batch.off.add(ns);
        return;
    }
    if (traced) {
        batch.onTraced.add(ns);
        batch.onSelf.add(tracer_.selfNs(span));
        return;
    }
    batch.on.add(ns);
    // marks_ holds (done-with-previous, start-of-pair) per next() call;
    // the last pair ends when runStream returns.
    marks_.push_back(t1);
    if (batch.pairMinNs.empty())
        batch.pairMinNs.assign(batch.pairs, INT64_MAX);
    std::int64_t rest = ns;
    for (std::size_t k = 0; k < batch.pairs && 2 * k + 2 < marks_.size();
         ++k) {
        const std::int64_t pairNs = marks_[2 * k + 2] - marks_[2 * k + 1];
        batch.pairMinNs[k] = std::min(batch.pairMinNs[k], pairNs);
        rest -= pairNs;
    }
    batch.rest.add(rest);
}

Outcome
AlignRun::run()
{
    for (std::size_t d = 0; d < 2; ++d) {
        const DatasetSpec &ds = kDatasets[d];
        pairs_[d] = seededPairs(
            ds.catalog, options_.small ? ds.smallStorePairs : ds.storePairs,
            options_.seed);
    }
    setupRepeat(true);
    for (std::size_t d = 0; d < 2; ++d)
        out_.check(storeMatches(stores_[d], pairs_[d]),
                   std::string("store round trip of ") +
                       kDatasets[d].catalog);

    for (std::size_t c = 0; c < kNumCells; ++c) {
        const CellSpec &cell = kCells[c];
        for (std::size_t d = 0; d < 2; ++d) {
            Batch batch;
            batch.cell = c;
            batch.dataset = d;
            batch.pairs = options_.small ? cell.smallPairs[d] : cell.pairs[d];
            batches_.push_back(std::move(batch));
        }
    }

    // Rounds run every batch once, until the window closes. A traced
    // run cycles through three kinds of round so that each kind is
    // spread over the whole window: traced (spans on), untraced (the
    // tracing-overhead baseline) and verify-off (the Ref-check share).
    const std::int64_t begin = nowNs();
    const std::int64_t deadline =
        begin + static_cast<std::int64_t>(options_.seconds * 1e9);
    unsigned rounds = 0;
    do {
        // Set-up is repeated inside the window too, so its fastest
        // repeat is taken over the same spread of host states.
        if (setupSpent_ < kSetupShare * (nowNs() - begin)) {
            const std::int64_t t0 = nowNs();
            setupRepeat(false);
            setupSpent_ += nowNs() - t0;
        }
        const unsigned kind = options_.trace ? rounds % 3 : 1;
        for (Batch &batch : batches_)
            repeat(batch, kind != 2, kind == 0);
        if (kind == 0) {
            // Decode cost on its own, every pair of every store.
            std::int64_t ns = 0;
            for (std::size_t d = 0; d < 2; ++d)
                ns += decodeNs(stores_[d], tracer_,
                               static_cast<std::uint32_t>(d));
            decode_.add(ns);
        }
        ++rounds;
    } while (nowNs() < deadline || (options_.trace && rounds < 3));

    if (options_.trace) {
        reportTrace();
        tracer_.write(options_.workDir.parent_path() /
                      "trace-short_align.jsonl");
    } else {
        report();
    }
    out_.notes.push_back("rounds: " + std::to_string(rounds) +
                         ", set-up repeats: " +
                         std::to_string(setup_.repeats));
    return std::move(out_);
}

/** Sums of the first-repeat counters of one cell, over its datasets. */
struct CellTotals
{
    std::uint64_t pairs = 0, cycles = 0, instructions = 0, memRequests = 0,
                  cacheStalls = 0;
    std::int64_t fastestSelfNs = 0;
};

std::vector<CellTotals>
cellTotals(const std::vector<Batch> &batches)
{
    std::vector<CellTotals> totals(kNumCells);
    for (const Batch &b : batches) {
        CellTotals &t = totals[b.cell];
        t.pairs += b.first.pairs;
        t.cycles += b.first.cycles;
        t.instructions += b.first.instructions;
        t.memRequests += b.first.memRequests;
        t.cacheStalls +=
            b.first.stallCycles(quetzal::sim::StallKind::Cache);
        t.fastestSelfNs += b.onSelf.repeats ? b.onSelf.ns : 0;
    }
    return totals;
}

/** Per algorithm with both variants: VEC cycles / QUETZAL+C cycles. */
std::map<std::string, double>
speedups(const std::vector<CellTotals> &totals)
{
    std::map<std::string, std::uint64_t> qzc, vec;
    for (std::size_t c = 0; c < kNumCells; ++c) {
        const CellSpec &cell = kCells[c];
        (cell.variant == kQzc ? qzc : vec)[cell.algo] += totals[c].cycles;
    }
    std::map<std::string, double> out;
    for (const auto &[algo, cycles] : qzc) {
        const auto v = vec.find(algo);
        if (v != vec.end() && cycles != 0)
            out[algo] = static_cast<double>(v->second) /
                        static_cast<double>(cycles);
    }
    return out;
}

void
AlignRun::report()
{
    double pairs = 0.0;
    double fastestNs = 0.0;
    std::vector<double> latencyMs;
    for (const Batch &b : batches_) {
        pairs += static_cast<double>(b.pairs);
        fastestNs += static_cast<double>(b.fastestNs());
        for (const std::int64_t ns : b.pairMinNs)
            latencyMs.push_back(static_cast<double>(ns) / 1e6);
    }
    const std::vector<CellTotals> totals =
        cellTotals(batches_);
    std::uint64_t qzcCycles = 0, qzcPairs = 0;
    for (std::size_t c = 0; c < kNumCells; ++c) {
        if (kCells[c].variant != kQzc)
            continue;
        qzcCycles += totals[c].cycles;
        qzcPairs += totals[c].pairs;
    }
    double logSpeedup = 0.0, logErr = 0.0;
    const auto ratios = speedups(totals);
    for (const auto &[algo, m] : ratios) {
        const double p = paperSpeedupShort(algo);
        logSpeedup += std::log(m);
        logErr += std::log(std::max(m / p, p / m));
    }
    const double n = static_cast<double>(ratios.size());

    out_.add("setup_s", static_cast<double>(setup_.ns) / 1e9);
    out_.add("pairs_per_s", pairs * 1e9 / fastestNs);
    out_.add("latency_p50_ms", quantile(latencyMs, 0.50));
    out_.add("latency_p95_ms", quantile(latencyMs, 0.95));
    out_.add("peak_rss_mb", peakRss().totalMiB());
    out_.add("ok_frac", out_.okFrac());
    out_.add("sim_cycles_per_pair",
             static_cast<double>(qzcCycles) / static_cast<double>(qzcPairs));
    out_.add("qzc_speedup_vs_vec", std::exp(logSpeedup / n));
    out_.add("speedup_err_vs_paper", std::exp(logErr / n));
    out_.notes.push_back(
        "latency: per-pair fastest repeat, " +
        std::to_string(latencyMs.size()) + " samples (" +
        std::to_string(latencyMs.size() / 20) + " beyond p95)");
}

void
AlignRun::reportTrace()
{
    const double decodePairs =
        static_cast<double>(pairs_[0].size() + pairs_[1].size());
    out_.add("genomics.store_write_mb_per_s",
             static_cast<double>(storeBytes_) / 1e6 /
                 (static_cast<double>(write_.ns) / 1e9));
    out_.add("genomics.store_open_ms", static_cast<double>(open_.ns) / 1e6);
    out_.add("genomics.decode_ns_per_pair",
             static_cast<double>(decode_.ns) / decodePairs);

    const std::vector<CellTotals> totals =
        cellTotals(batches_);
    double onNs = 0.0, tracedNs = 0.0, offNs = 0.0;
    for (const Batch &b : batches_) {
        onNs += static_cast<double>(b.on.ns);
        tracedNs += static_cast<double>(b.onTraced.ns);
        offNs += static_cast<double>(b.off.ns);
    }
    for (std::size_t c = 0; c < kNumCells; ++c) {
        const CellSpec &cell = kCells[c];
        const CellTotals &t = totals[c];
        const std::string name = std::string(cell.algo) + "-" + cell.tag;
        const double pairs = static_cast<double>(t.pairs);
        const double instr = static_cast<double>(t.instructions);
        const double self = static_cast<double>(t.fastestSelfNs);
        out_.add("algos." + name + ".us_per_pair", self / 1e3 / pairs);
        out_.add("sim." + name + ".ns_per_sim_instr", self / instr);
        out_.add("sim." + name + ".cycles_per_pair",
                 static_cast<double>(t.cycles) / pairs);
        out_.add("sim." + name + ".instr_per_pair", instr / pairs);
        out_.add("sim." + name + ".mem_req_per_instr",
                 static_cast<double>(t.memRequests) / instr);
        out_.add("sim." + name + ".cache_stall_frac",
                 static_cast<double>(t.cacheStalls) /
                     static_cast<double>(t.cycles));
    }
    out_.add("algos.verify_frac", 1.0 - offNs / onNs);
    for (const auto &[algo, ratio] : speedups(totals))
        out_.add("quetzal." + algo + ".speedup_vs_vec", ratio);
    out_.add("trace.overhead_frac", tracedNs / onNs - 1.0);
}

} // namespace

Outcome
runAlign(const Options &options)
{
    AlignRun run(options);
    return run.run();
}

} // namespace qzbench
