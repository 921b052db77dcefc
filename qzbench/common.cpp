#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include <unistd.h>

#include "common/logging.hpp"
#include "genomics/datasets.hpp"
#include "genomics/pairsource.hpp"

namespace qzbench {

namespace genomics = quetzal::genomics;

std::int64_t
nowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

void
Outcome::add(std::string name, double value)
{
    metrics.push_back({std::move(name), value});
}

void
Outcome::check(bool ok, const std::string &why)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    // The first few reasons are enough to debug; a systematic
    // failure would otherwise repeat once per repeat.
    if (failed <= 5)
        notes.push_back("FAILED: " + why);
}

std::uint32_t
Tracer::open(const char *name, std::uint32_t parent, std::uint64_t id,
             std::uint32_t group)
{
    if (!enabled_)
        return kNone;
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.group = group;
    span.start = nowNs();
    spans_.push_back(span);
    childNs_.push_back(0);
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::close(std::uint32_t span, std::uint64_t pairs,
              std::uint64_t instructions)
{
    if (span == kNone)
        return;
    Span &s = spans_[span];
    s.end = nowNs();
    s.pairs = pairs;
    s.instructions = instructions;
    if (s.parent != kNone)
        childNs_[s.parent] += s.end - s.start;
}

std::int64_t
Tracer::selfNs(std::uint32_t span) const
{
    const Span &s = spans_[span];
    return s.end - s.start - childNs_[span];
}

void
Tracer::write(const std::filesystem::path &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"span\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << ",\"parent\":"
            << (s.parent == kNone ? std::int64_t{-1}
                                  : std::int64_t{s.parent})
            << ",\"id\":" << s.id << ",\"group\":" << s.group
            << ",\"pairs\":" << s.pairs
            << ",\"instructions\":" << s.instructions << "}\n";
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::uint64_t
vmHwmKiB()
{
    // VmHWM, not getrusage's ru_maxrss: across exec, ru_maxrss keeps
    // the high-water mark of the image that forked, so a pool worker
    // would report the benchmark's own peak instead of its own.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

} // namespace

void
recordWorkerPeak()
{
    const char *dir = std::getenv(kWorkerPeakDirEnv);
    if (dir == nullptr)
        return;
    std::ofstream(std::filesystem::path(dir) /
                  ("worker-" + std::to_string(::getpid())))
        << vmHwmKiB() << "\n";
}

PeakRss
peakRss()
{
    std::uint64_t worker = 0;
    const char *dir = std::getenv(kWorkerPeakDirEnv);
    std::error_code ec;
    if (dir != nullptr)
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            std::uint64_t kib = 0;
            std::ifstream(entry.path()) >> kib;
            worker = std::max(worker, kib);
        }
    return {static_cast<double>(vmHwmKiB()) / 1024.0,
            static_cast<double>(worker) / 1024.0};
}

double
paperSpeedupShort(const std::string &algo)
{
    // QUETZAL+C / VEC speedups the paper reports in Fig. 13a, copied
    // from EXPERIMENTS.md ("Fig. 13a — single-core speedups", column
    // "Paper QZ+C/VEC"). The long-read figures wait for a long-read
    // workload (NOTES.md).
    struct Row
    {
        const char *algo;
        double shortReads;
        double longReads;
    };
    static constexpr Row kPaper[] = {
        {"WFA", 2.1, 5.5}, {"BiWFA", 2.1, 5.5}, {"SS", 2.1, 5.2}};
    for (const Row &row : kPaper)
        if (algo == row.algo)
            return row.shortReads;
    quetzal::fatal("no paper QZ+C/VEC figure for {}", algo);
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace {

/** FNV-1a-64 of @p text: a per-dataset stream that no library changes. */
std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * A random text of @p length bases and a read made from it with
 * exactly round(length * rate) edits: 60% substitutions, 20%
 * insertions and 20% deletions (the read simulator's mix), at
 * distinct random positions. A fixed edit count keeps the work per
 * pair, and so every timing, from swinging with the seed; the seed
 * still decides every base and every edit position.
 */
genomics::SequencePair
mutatedPair(std::size_t length, double rate, Rng &rng)
{
    static constexpr char kBases[] = "ACGT";
    genomics::SequencePair pair;
    pair.text.resize(length);
    for (char &c : pair.text)
        c = kBases[rng.below(4)];

    const auto share = [](double count, double frac) {
        return static_cast<std::size_t>(std::llround(count * frac));
    };
    const std::size_t edits = share(static_cast<double>(length), rate);
    const std::size_t subs = share(static_cast<double>(edits), 0.6);
    const std::size_t inserts = share(static_cast<double>(edits), 0.2);
    // Partial Fisher-Yates: the first `edits` slots are the positions.
    std::vector<std::uint32_t> order(length);
    for (std::size_t i = 0; i < length; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    std::vector<char> op(length, 0);
    for (std::size_t k = 0; k < edits; ++k) {
        std::swap(order[k], order[k + rng.below(length - k)]);
        op[order[k]] = k < subs ? 'S' : (k < subs + inserts ? 'I' : 'D');
    }
    pair.pattern.reserve(length + inserts);
    for (std::size_t i = 0; i < length; ++i) {
        const char c = pair.text[i];
        switch (op[i]) {
          case 'S': // any base but the original
            pair.pattern +=
                kBases[(std::string_view(kBases).find(c) + 1 + rng.below(3)) %
                       4];
            break;
          case 'I':
            pair.pattern += c;
            pair.pattern += kBases[rng.below(4)];
            break;
          case 'D':
            break;
          default:
            pair.pattern += c;
        }
    }
    pair.trueEdits = static_cast<std::int64_t>(edits);
    return pair;
}

} // namespace

std::vector<genomics::SequencePair>
seededPairs(const std::string &catalogName, std::size_t count,
            std::uint64_t seed)
{
    // The catalog's shape: its read length, and its bimodal mix of
    // well-matched (even) and divergent (odd) pairs.
    const genomics::DatasetSpec &spec = genomics::datasetSpec(catalogName);
    Rng rng(mix(seed ^ fnv1a(spec.name)));
    std::vector<genomics::SequencePair> pairs;
    pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        pairs.push_back(mutatedPair(
            spec.readLength,
            i % 2 == 0 ? spec.errorRate : spec.highErrorRate, rng));
    return pairs;
}

StoreSetup
writeAndOpenStore(const std::vector<genomics::SequencePair> &pairs,
                  const std::string &catalogName, std::uint64_t seed,
                  const std::filesystem::path &path, Tracer &tracer)
{
    const genomics::DatasetSpec &spec = genomics::datasetSpec(catalogName);
    genomics::StoreProvenance provenance;
    provenance.name = spec.name;
    provenance.seed = seed;
    provenance.readLength = spec.readLength;
    provenance.errorRate = spec.errorRate;

    StoreSetup setup;
    const std::uint32_t write =
        tracer.open("genomics.store_write", Tracer::kNone, 0, 0);
    const std::int64_t t0 = nowNs();
    {
        genomics::StoreWriter writer(path.string(), provenance);
        for (const genomics::SequencePair &pair : pairs)
            writer.add(pair);
        writer.finish();
    }
    const std::int64_t t1 = nowNs();
    tracer.close(write, pairs.size());
    const std::uint32_t open =
        tracer.open("genomics.store_open", Tracer::kNone, 0, 0);
    setup.store = genomics::ReadStore::open(path.string());
    const std::int64_t t2 = nowNs();
    tracer.close(open, setup.store->size());
    setup.writeNs = t1 - t0;
    setup.openNs = t2 - t1;
    setup.bytes = std::filesystem::file_size(path);
    return setup;
}

std::int64_t
decodeNs(std::shared_ptr<const genomics::ReadStore> store, Tracer &tracer,
         std::uint32_t group)
{
    tracer.setEnabled(true);
    genomics::StorePairSource source(std::move(store));
    genomics::PairBatch batch;
    std::int64_t ns = 0;
    for (;;) {
        const std::uint32_t span =
            tracer.open("genomics.decode", Tracer::kNone, 0, group);
        const std::size_t got = source.next(batch);
        tracer.close(span, got);
        ns += tracer.spans()[span].end - tracer.spans()[span].start;
        if (got == 0)
            break;
    }
    tracer.setEnabled(false);
    return ns;
}

bool
storeMatches(std::shared_ptr<const genomics::ReadStore> store,
             const std::vector<genomics::SequencePair> &pairs)
{
    genomics::StorePairSource source(std::move(store));
    if (source.size() != pairs.size())
        return false;
    genomics::PairBatch batch;
    std::size_t i = 0;
    while (source.next(batch) > 0) {
        for (const genomics::PairView &view : batch.views()) {
            if (view.pattern != pairs[i].pattern ||
                view.text != pairs[i].text)
                return false;
            ++i;
        }
    }
    return i == pairs.size();
}

} // namespace qzbench
