/**
 * @file
 * Shared pieces of the qzbench binary: run options, the metric
 * record every workload fills, the in-memory span recorder, the
 * fastest-repeat estimator helpers, and seeded input generation.
 *
 * The benchmark reaches the repository only through its public
 * functions — genomics (StoreWriter, ReadStore::open,
 * StorePairSource::next), algos (Workload::runStream, RunResult,
 * toJson), serve (AlignService, runRequestInProcess) — so every span
 * below sits on a layer boundary the program already exposes.
 */
#ifndef QZBENCH_BENCH_HPP
#define QZBENCH_BENCH_HPP

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "genomics/sequence.hpp"
#include "genomics/store.hpp"

namespace qzbench {

/** steady_clock nanoseconds since the first call in this process. */
std::int64_t nowNs();

/** One invocation of the benchmark. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small inputs for the benchmark's own tests; not a measurement. */
    bool small = false;
    std::filesystem::path workDir; //!< stores live here; removed at exit
    std::string selfExe;           //!< this binary, for serve workers
};

/** One reported number; main() attaches the declared unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** What a workload run hands back to main(). */
struct Outcome
{
    std::vector<Metric> metrics; //!< end-to-end, or per-layer when traced
    std::uint64_t attempted = 0; //!< operations whose output was checked
    std::uint64_t failed = 0;
    std::vector<std::string> notes; //!< sample counts, failure reasons

    void add(std::string name, double value);
    /** Count one checked operation; @p why is recorded when !ok. */
    void check(bool ok, const std::string &why);

    /** Checked operations that passed, over those attempted. */
    double
    okFrac() const
    {
        return static_cast<double>(attempted - failed) /
               static_cast<double>(attempted);
    }
};

/**
 * In-memory span recorder. A span has a name, start, end and parent;
 * spans of one request (a serve request, or one repeat of a cell
 * batch) share @c id, and @c group names the fixed batch or request
 * the span measured so repeats can be compared. Counts (pairs,
 * simulated instructions) ride on the span that did the work. A
 * disabled tracer records nothing and every call is one branch.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Span
    {
        const char *name = "";
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::uint32_t parent = kNone;
        std::uint64_t id = 0;
        std::uint32_t group = 0;
        std::uint64_t pairs = 0;
        std::uint64_t instructions = 0;
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open a span now; kNone when disabled. */
    std::uint32_t open(const char *name, std::uint32_t parent,
                       std::uint64_t id, std::uint32_t group);
    /** Close @p span now, attaching its counts. */
    void close(std::uint32_t span, std::uint64_t pairs = 0,
               std::uint64_t instructions = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of @p span minus the time its direct children cover. */
    std::int64_t selfNs(std::uint32_t span) const;

    /** Write every span as one JSON object per line. */
    void write(const std::filesystem::path &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int64_t> childNs_; //!< per span: children's time
};

/** Fastest repeat of a fixed batch, over the whole run. */
struct Fastest
{
    std::int64_t ns = INT64_MAX;
    std::uint64_t repeats = 0;

    void
    add(std::int64_t sample)
    {
        ns = sample < ns ? sample : ns;
        ++repeats;
    }
};

/** Linear-interpolated quantile of @p values (0 <= q <= 1). */
double quantile(std::vector<double> values, double q);

/**
 * Environment variable naming the directory where each serve_mix pool
 * worker leaves its peak resident set as it exits.
 */
inline constexpr const char *kWorkerPeakDirEnv = "QZBENCH_WORKER_PEAK_DIR";

/** In a pool worker about to exit: leave its peak RSS for the parent. */
void recordWorkerPeak();

/**
 * Peak resident set of this process and the largest peak any pool
 * worker left behind (VmHWM of each, so a worker counts only what it
 * touched after exec).
 */
struct PeakRss
{
    double ownMiB = 0.0;
    double workerMiB = 0.0;

    double totalMiB() const { return ownMiB + workerMiB; }
};
PeakRss peakRss();

/**
 * The paper's QUETZAL+C / VEC speedup for @p algo on short reads
 * (Fig. 13a). The simulator is not validated against hardware, so
 * speedup_err_vs_paper is a distance from the paper's figures, not
 * from a measurement of real silicon.
 */
double paperSpeedupShort(const std::string &algo);

/** splitmix64: the seed scrambler behind every generated input. */
std::uint64_t mix(std::uint64_t x);

/** Deterministic draws: each one re-scrambles the state with mix(). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /** A draw in [0, bound); bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        state_ = mix(state_);
        return state_ % bound;
    }

  private:
    std::uint64_t state_;
};

/**
 * @p count pairs shaped like catalog dataset @p catalogName (its read
 * length, its alternating low/high error rates), each read carrying
 * exactly round(length * rate) edits, drawn from seed @p seed.
 */
std::vector<quetzal::genomics::SequencePair>
seededPairs(const std::string &catalogName, std::size_t count,
            std::uint64_t seed);

/** Timings of one store write + open. */
struct StoreSetup
{
    std::shared_ptr<const quetzal::genomics::ReadStore> store;
    std::int64_t writeNs = 0;
    std::int64_t openNs = 0;
    std::uint64_t bytes = 0;
};

/**
 * Write @p pairs to a store at @p path with StoreWriter and open it
 * with ReadStore::open (checksum verified), recording both as spans.
 */
StoreSetup writeAndOpenStore(
    const std::vector<quetzal::genomics::SequencePair> &pairs,
    const std::string &catalogName, std::uint64_t seed,
    const std::filesystem::path &path, Tracer &tracer);

/**
 * Decode all of @p store through StorePairSource::next in its default
 * batches, as qz-align reads, one "genomics.decode" span per call.
 * Returns the spans' total. Leaves @p tracer disabled.
 */
std::int64_t decodeNs(std::shared_ptr<const quetzal::genomics::ReadStore> store,
                      Tracer &tracer, std::uint32_t group);

/** True when every pair of @p store decodes to @p pairs, in order. */
bool storeMatches(std::shared_ptr<const quetzal::genomics::ReadStore> store,
                  const std::vector<quetzal::genomics::SequencePair> &pairs);

Outcome runAlign(const Options &options);
Outcome runServe(const Options &options);

} // namespace qzbench

#endif // QZBENCH_BENCH_HPP
