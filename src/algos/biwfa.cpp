#include "algos/biwfa.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace quetzal::algos {

namespace {

/** Subproblems at or below this size run plain WFA with traceback. */
constexpr std::size_t kLeafSize = 1024;

/** Diagonal range of wave @p s for an m x n problem. */
void
waveRange(std::int64_t s, std::int64_t m, std::int64_t n, int &lo,
          int &hi)
{
    lo = static_cast<int>(std::max(-m, -s));
    hi = static_cast<int>(std::min(n, s));
}

/**
 * Scan for a forward/reverse meeting: a diagonal k where the text
 * consumed by both sides covers the whole text.
 */
bool
findOverlap(WfaEngine &engine, const Wave &f, const Wave &r,
            std::int64_t m, std::int64_t n, std::int64_t sf,
            std::int64_t sr, Breakpoint &bp)
{
    const int nm = static_cast<int>(n - m);
    const int lo = std::max(f.lo(), nm - r.hi());
    const int hi = std::min(f.hi(), nm - r.lo());
    if (lo > hi)
        return false;
    engine.chargeOverlapCheck(f, r, lo, hi);
    for (int k = lo; k <= hi; ++k) {
        const std::int32_t jf = f.at(k);
        const std::int32_t jvr = r.at(nm - k);
        if (jf == kOffNone || jvr == kOffNone)
            continue;
        if (static_cast<std::int64_t>(jf) + jvr >=
            static_cast<std::int64_t>(n)) {
            // Split where the reverse coverage begins, clamped into
            // the forward run.
            std::int64_t j = n - jvr;
            j = std::max<std::int64_t>(j, std::max<std::int64_t>(k, 0));
            j = std::min<std::int64_t>(
                j, std::min<std::int64_t>(jf,
                                          std::min<std::int64_t>(
                                              n, m + k)));
            bp.i = j - k;
            bp.j = j;
            bp.scoreF = sf;
            bp.scoreR = sr;
            return true;
        }
    }
    return false;
}

/**
 * Score pass with watchdog accounting. BiWFA's rolling storage is
 * O(s) by construction, so only the step ceiling is consulted; a
 * breach throws WfaBudgetExceeded for the callers here to translate
 * (biwfaAlign degrades to pruned WFA, biwfaScore reports terminally).
 */
std::int64_t
scoreImpl(WfaEngine &engine, std::string_view pattern,
          std::string_view text, genomics::ElementSize esize,
          Breakpoint *bp)
{
    if (pattern.empty() || text.empty()) {
        if (bp)
            *bp = Breakpoint{};
        return static_cast<std::int64_t>(
            std::max(pattern.size(), text.size()));
    }

    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());

    engine.begin(pattern, text, esize);

    Wave fwd(0, 0), rev(0, 0), scratch;
    fwd.set(0, 0);
    rev.set(0, 0);
    engine.extend(fwd, Dir::Fwd);
    engine.extend(rev, Dir::Rev);

    std::int64_t sf = 0, sr = 0;
    Breakpoint found;
    if (findOverlap(engine, fwd, rev, m, n, sf, sr, found)) {
        if (bp)
            *bp = found;
        return 0;
    }

    for (;;) {
        panic_if_not(sf + sr <= m + n,
                     "BiWFA exceeded the m+n score bound");
        engine.noteStep();
        if (engine.budgetExceeded())
            throw WfaBudgetExceeded{engine.stepsUsed(),
                                    engine.waveBytesUsed()};
        if (sf <= sr) {
            int lo, hi;
            waveRange(sf + 1, m, n, lo, hi);
            scratch.reset(lo, hi);
            engine.nextWave(fwd, scratch);
            engine.extend(scratch, Dir::Fwd);
            std::swap(fwd, scratch);
            ++sf;
        } else {
            // The reverse problem aligns reversed pattern/text; its
            // own (m, n) are the same, so ranges match.
            int lo, hi;
            waveRange(sr + 1, m, n, lo, hi);
            scratch.reset(lo, hi);
            engine.nextWave(rev, scratch);
            engine.extend(scratch, Dir::Rev);
            std::swap(rev, scratch);
            ++sr;
        }
        if (findOverlap(engine, fwd, rev, m, n, sf, sr, found)) {
            if (bp)
                *bp = found;
            return sf + sr;
        }
    }
}

} // namespace

std::int64_t
biwfaScore(WfaEngine &engine, std::string_view pattern,
           std::string_view text, genomics::ElementSize esize,
           Breakpoint *bp)
{
    try {
        return scoreImpl(engine, pattern, text, esize, bp);
    } catch (const WfaBudgetExceeded &e) {
        // Score-only callers need the exact score; no degraded mode.
        throw ResourceError(qformat(
            "fatal: BiWFA step budget exhausted (pair {}x{}: {} steps "
            "/ ceiling {})",
            pattern.size(), text.size(), e.steps,
            engine.budget().maxSteps));
    }
}

AlignResult
biwfaAlign(WfaEngine &engine, std::string_view pattern,
           std::string_view text, bool traceback,
           genomics::ElementSize esize)
{
    const auto m = static_cast<std::int64_t>(pattern.size());
    const auto n = static_cast<std::int64_t>(text.size());

    // Small problems (and empty sides) go straight to WFA: the
    // wavefront table fits comfortably, which is exactly when BiWFA's
    // recursion bottoms out.
    if (std::max(pattern.size(), text.size()) <= kLeafSize)
        return wfaAlign(engine, pattern, text, traceback, esize);

    Breakpoint bp;
    std::int64_t score;
    try {
        score = scoreImpl(engine, pattern, text, esize, &bp);
    } catch (const WfaBudgetExceeded &) {
        // Watchdog fired mid-meet: degrade this subproblem to the
        // pruned unidirectional variant. As in wfaAlign's own retry,
        // the step ceiling is lifted (pruning bounds per-step work
        // instead; steps track the score, which pruning cannot
        // shrink) while the memory ceiling stays enforced — wfaAlign
        // raises a terminal ResourceError if even the pruned pass
        // breaches it.
        WfaHeuristic fallback;
        fallback.maxLag = engine.budget().fallbackLag;
        const ResourceBudget saved = engine.budget();
        ResourceBudget relaxed = saved;
        relaxed.maxSteps = 0;
        engine.setBudget(relaxed);
        AlignResult out;
        try {
            out = wfaAlign(engine, pattern, text, traceback, esize,
                           fallback);
        } catch (...) {
            engine.setBudget(saved);
            throw;
        }
        engine.setBudget(saved);
        out.degraded = true;
        return out;
    }
    if (!traceback)
        return AlignResult{score, {}};

    // Degenerate splits cannot shrink the problem; fall back.
    const bool degenerate = (bp.i <= 0 && bp.j <= 0) ||
                            (bp.i >= m && bp.j >= n);
    if (degenerate)
        return wfaAlign(engine, pattern, text, traceback, esize);

    const auto i = static_cast<std::size_t>(bp.i);
    const auto j = static_cast<std::size_t>(bp.j);
    AlignResult left = biwfaAlign(engine, pattern.substr(0, i),
                                  text.substr(0, j), traceback, esize);
    AlignResult right = biwfaAlign(engine, pattern.substr(i),
                                   text.substr(j), traceback, esize);

    AlignResult out;
    out.score = left.score + right.score;
    out.cigar.ops = std::move(left.cigar.ops);
    out.cigar.ops += right.cigar.ops;
    out.degraded = left.degraded || right.degraded;
    return out;
}

} // namespace quetzal::algos
