#include "algos/wfa.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.hpp"

namespace quetzal::algos {

namespace {

/** Trivial alignments against an empty side. */
bool
trivialAlign(std::string_view pattern, std::string_view text,
             bool traceback, AlignResult &out)
{
    if (!pattern.empty() && !text.empty())
        return false;
    out = AlignResult{};
    if (pattern.empty() && text.empty())
        return true;
    if (pattern.empty()) {
        out.score = static_cast<std::int64_t>(text.size());
        if (traceback)
            out.cigar.append('I', text.size());
    } else {
        out.score = static_cast<std::int64_t>(pattern.size());
        if (traceback)
            out.cigar.append('D', pattern.size());
    }
    return true;
}

/** True when wave @p w completes the alignment. */
bool
reachedEnd(const Wave &w, int kEnd, std::int64_t n)
{
    return w.contains(kEnd) && w.at(kEnd) >= n;
}

/** Diagonal range of wave @p s for an m x n problem. */
void
waveRange(std::int64_t s, std::int64_t m, std::int64_t n, int &lo,
          int &hi)
{
    lo = static_cast<int>(std::max(-m, -s));
    hi = static_cast<int>(std::min(n, s));
}

/** Recover the CIGAR from the full wavefront table. */
Cigar
traceback(WfaEngine &engine, const std::vector<Wave> &waves,
          std::int64_t score, std::int64_t m, std::int64_t n)
{
    Cigar rev;
    int k = static_cast<int>(n - m);
    std::int32_t j = static_cast<std::int32_t>(n);
    for (std::int64_t s = score; s > 0; --s) {
        const Wave &prev = waves[static_cast<std::size_t>(s - 1)];
        engine.chargeTracebackHop(prev.ptr(k - 1), prev.ptr(k),
                                  prev.ptr(k + 1));
        const std::int32_t ins = prev.at(k - 1) + 1;
        const std::int32_t sub = prev.at(k) + 1;
        const std::int32_t del = prev.at(k + 1);
        const std::int32_t jbase = std::max(ins, std::max(sub, del));
        panic_if_not(jbase > kOffNone / 2,
                     "traceback: no valid predecessor at s={}, k={}", s,
                     k);
        const std::int32_t matches = j - jbase;
        panic_if_not(matches >= 0,
                     "traceback: negative match run at s={}, k={}", s, k);
        rev.append('M', static_cast<std::size_t>(matches));
        engine.chargeTracebackRun(static_cast<std::size_t>(matches));
        if (jbase == sub) {
            rev.append('X');
            j = jbase - 1;
        } else if (jbase == ins) {
            rev.append('I');
            k -= 1;
            j = jbase - 1;
        } else {
            rev.append('D');
            k += 1;
            j = jbase;
        }
    }
    panic_if_not(k == 0, "traceback did not land on diagonal 0");
    panic_if_not(j >= 0, "traceback overshot the origin");
    rev.append('M', static_cast<std::size_t>(j));
    engine.chargeTracebackRun(static_cast<std::size_t>(j));
    std::reverse(rev.ops.begin(), rev.ops.end());
    return rev;
}

/**
 * Wavefront-reduction: shrink [lo, hi] by dropping edge diagonals
 * whose anti-diagonal progress (2*offset - k) lags the best progress
 * by more than maxLag. Returns the trimmed bounds.
 */
void
pruneWave(WfaEngine &engine, const Wave &wave, std::int32_t maxLag,
          int &lo, int &hi)
{
    std::int64_t best = std::numeric_limits<std::int64_t>::min();
    for (int k = lo; k <= hi; ++k) {
        const std::int32_t off = wave.at(k);
        if (off == kOffNone)
            continue;
        best = std::max<std::int64_t>(best, 2 * std::int64_t{off} - k);
    }
    if (best == std::numeric_limits<std::int64_t>::min())
        return;
    auto lags = [&](int k) {
        const std::int32_t off = wave.at(k);
        return off == kOffNone ||
               2 * std::int64_t{off} - k + maxLag < best;
    };
    int trimmed = 0;
    while (lo < hi && lags(lo)) {
        ++lo;
        ++trimmed;
    }
    while (hi > lo && lags(hi)) {
        --hi;
        ++trimmed;
    }
    // The scan is a cheap linear pass over the wavefront row.
    engine.chargeTracebackRun(
        static_cast<std::size_t>((hi - lo + 1) + trimmed) / 8);
}

/** Report a ceiling breached even by the pruned retry and throw. */
[[noreturn]] void
budgetExhausted(const WfaEngine &engine, std::int64_t m, std::int64_t n)
{
    throw ResourceError(qformat(
        "fatal: resource budget exhausted even after pruned retry "
        "(pair {}x{}: {} steps / ceiling {}, {} wave bytes / "
        "ceiling {})",
        m, n, engine.stepsUsed(), engine.budget().maxSteps,
        engine.waveBytesUsed(), engine.budget().maxWaveBytes));
}

} // namespace

AlignResult
wfaAlign(WfaEngine &engine, std::string_view pattern,
         std::string_view text, bool doTraceback,
         genomics::ElementSize esize, const WfaHeuristic &heuristic)
{
    AlignResult result;
    if (trivialAlign(pattern, text, doTraceback, result))
        return result;

    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());
    const int kEnd = static_cast<int>(n - m);

    // One full wavefront pass under @p heur. Returns the score, or
    // nullopt when the engine's resource budget was breached (the
    // watchdog path; retained waves/score are then meaningless).
    std::vector<Wave> waves;
    auto attempt =
        [&](const WfaHeuristic &heur) -> std::optional<std::int64_t> {
        engine.begin(pattern, text, esize); // resets usage counters
        waves.clear();
        waves.emplace_back(0, 0);
        waves.back().set(0, 0);
        engine.noteWaveAlloc(1);
        engine.extend(waves.back(), Dir::Fwd);

        std::int64_t s = 0;
        int curLo = 0, curHi = 0;
        while (!reachedEnd(waves.back(), kEnd, n)) {
            panic_if_not(s <= m + n, "WFA exceeded the m+n score bound");
            engine.noteStep();
            if (engine.budgetExceeded())
                return std::nullopt;
            int lo, hi;
            waveRange(s + 1, m, n, lo, hi);
            if (heur.enabled()) {
                // Grow from the (possibly pruned) previous bounds only.
                lo = std::max(lo, curLo - 1);
                hi = std::min(hi, curHi + 1);
            }
            waves.emplace_back(lo, hi);
            engine.noteWaveAlloc(static_cast<std::size_t>(hi - lo + 1));
            engine.nextWave(waves[static_cast<std::size_t>(s)],
                            waves.back());
            engine.extend(waves.back(), Dir::Fwd);
            curLo = lo;
            curHi = hi;
            if (heur.enabled())
                pruneWave(engine, waves.back(), heur.maxLag, curLo,
                          curHi);
            ++s;
        }
        return s;
    };

    std::optional<std::int64_t> score = attempt(heuristic);
    if (!score) {
        // Watchdog fired: degrade to adaptive pruning and retry once.
        // When the caller's own pruning was already at least as tight
        // as the fallback, a retry cannot shrink the work — give up.
        WfaHeuristic fallback;
        fallback.maxLag = engine.budget().fallbackLag;
        if (heuristic.enabled() && heuristic.maxLag <= fallback.maxLag)
            budgetExhausted(engine, m, n);
        result.degraded = true;
        // The retry lifts the step ceiling: steps equal the alignment
        // score, which pruning cannot reduce — the lag bound caps the
        // per-step work and memory instead, so total work is linear.
        // The wave-memory ceiling stays enforced; pruned waves are
        // narrow, so a second breach means the pair is hopeless.
        const ResourceBudget saved = engine.budget();
        ResourceBudget relaxed = saved;
        relaxed.maxSteps = 0;
        engine.setBudget(relaxed);
        score = attempt(fallback);
        engine.setBudget(saved);
        if (!score)
            budgetExhausted(engine, m, n);
    }

    result.score = *score;
    if (doTraceback)
        result.cigar = traceback(engine, waves, *score, m, n);
    return result;
}

std::int64_t
wfaScore(WfaEngine &engine, std::string_view pattern,
         std::string_view text, genomics::ElementSize esize)
{
    AlignResult trivial;
    if (trivialAlign(pattern, text, false, trivial))
        return trivial.score;

    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());
    const int kEnd = static_cast<int>(n - m);

    engine.begin(pattern, text, esize);

    Wave cur(0, 0);
    cur.set(0, 0);
    engine.extend(cur, Dir::Fwd);

    std::int64_t s = 0;
    Wave next;
    while (!reachedEnd(cur, kEnd, n)) {
        panic_if_not(s <= m + n, "WFA exceeded the m+n score bound");
        engine.noteStep();
        // Score-only WFA has no pruned fallback (its callers need the
        // exact score), so a breach is terminal rather than degraded.
        if (engine.budgetExceeded())
            budgetExhausted(engine, m, n);
        int lo, hi;
        waveRange(s + 1, m, n, lo, hi);
        next.reset(lo, hi);
        engine.nextWave(cur, next);
        engine.extend(next, Dir::Fwd);
        std::swap(cur, next);
        ++s;
    }
    return s;
}

std::uint64_t
wfaCellCount(std::int64_t score)
{
    // Wave s holds up to 2s+1 diagonals: sum over s gives (s+1)^2.
    const auto s = static_cast<std::uint64_t>(score);
    return (s + 1) * (s + 1);
}

} // namespace quetzal::algos
