/**
 * @file
 * AVX-512 HostSimdOps table. Compiled whenever the compiler accepts
 * the AVX-512 flags; selected at runtime (unless QZ_HOST_SIMD=scalar)
 * only when CPUID reports every feature this TU uses: F, BW, DQ, VL,
 * CD (vplzcntd/q) and VPOPCNTDQ (vpopcntd/q).
 *
 * Each kernel computes exactly what the scalar reference computes —
 * bit-for-bit, including the degenerate cases (ctz/clz of zero, shifts
 * >= 64, zero-length widening loads). The trailing-count kernels lean
 * on two identities: countr_zero(x) == popcount(~x & (x - 1)) and
 * countl_zero == vplzcnt directly (both defined at x == 0, yielding
 * the full element width, which is what the scalar <bit> functions
 * return).
 */
#include "isa/hostsimd.hpp"

#include <immintrin.h>

#include <cstring>

namespace quetzal::isa {

namespace {

using W = HostSimdOps::W;

inline __m512i
ld(const W *p)
{
    return _mm512_loadu_si512(p);
}

inline void
st(W *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

// ---- 64-bit lanes -------------------------------------------------

void
and64(const W *a, const W *b, W *out)
{
    st(out, _mm512_and_si512(ld(a), ld(b)));
}

void
or64(const W *a, const W *b, W *out)
{
    st(out, _mm512_or_si512(ld(a), ld(b)));
}

void
xor64(const W *a, const W *b, W *out)
{
    st(out, _mm512_xor_si512(ld(a), ld(b)));
}

void
xnor64(const W *a, const W *b, W *out)
{
    // Ternary-logic truth table for ~(A ^ B), C ignored: 0xC3.
    const __m512i va = ld(a);
    st(out, _mm512_ternarylogic_epi64(va, ld(b), va, 0xC3));
}

void
add64(const W *a, const W *b, W *out)
{
    st(out, _mm512_add_epi64(ld(a), ld(b)));
}

void
sub64(const W *a, const W *b, W *out)
{
    st(out, _mm512_sub_epi64(ld(a), ld(b)));
}

void
min64(const W *a, const W *b, W *out)
{
    st(out, _mm512_min_epi64(ld(a), ld(b)));
}

void
max64(const W *a, const W *b, W *out)
{
    st(out, _mm512_max_epi64(ld(a), ld(b)));
}

void
addImm64(const W *a, std::int64_t imm, W *out)
{
    st(out, _mm512_add_epi64(ld(a), _mm512_set1_epi64(imm)));
}

void
addImmPred64(const W *a, std::int64_t imm, std::uint64_t mask, W *out)
{
    const __m512i va = ld(a);
    st(out, _mm512_mask_add_epi64(va, static_cast<__mmask8>(mask), va,
                                  _mm512_set1_epi64(imm)));
}

void
addPred64(const W *a, const W *b, std::uint64_t mask, W *out)
{
    const __m512i va = ld(a);
    st(out, _mm512_mask_add_epi64(va, static_cast<__mmask8>(mask), va,
                                  ld(b)));
}

void
sel64(std::uint64_t mask, const W *a, const W *b, W *out)
{
    st(out, _mm512_mask_blend_epi64(static_cast<__mmask8>(mask), ld(b),
                                    ld(a)));
}

void
shr64(const W *a, unsigned shift, W *out)
{
    // vpsrlq with a count >= 64 yields zero, matching the scalar
    // kernel's explicit guard.
    st(out, _mm512_srl_epi64(ld(a),
                             _mm_cvtsi32_si128(static_cast<int>(shift))));
}

void
shl64(const W *a, unsigned shift, W *out)
{
    st(out, _mm512_sll_epi64(ld(a),
                             _mm_cvtsi32_si128(static_cast<int>(shift))));
}

/** Per-lane trailing zeros: popcount(~x & (x - 1)); tz(0) == 64. */
inline __m512i
tzcnt64(__m512i x)
{
    const __m512i xm1 = _mm512_sub_epi64(x, _mm512_set1_epi64(1));
    return _mm512_popcnt_epi64(_mm512_andnot_si512(x, xm1));
}

void
ctz64(const W *a, W *out)
{
    st(out, tzcnt64(ld(a)));
}

void
clz64(const W *a, W *out)
{
    st(out, _mm512_lzcnt_epi64(ld(a)));
}

// ---- 32-bit elements ----------------------------------------------

void
add32(const W *a, const W *b, W *out)
{
    st(out, _mm512_add_epi32(ld(a), ld(b)));
}

void
sub32(const W *a, const W *b, W *out)
{
    st(out, _mm512_sub_epi32(ld(a), ld(b)));
}

void
min32(const W *a, const W *b, W *out)
{
    st(out, _mm512_min_epi32(ld(a), ld(b)));
}

void
max32(const W *a, const W *b, W *out)
{
    st(out, _mm512_max_epi32(ld(a), ld(b)));
}

void
addImm32(const W *a, std::int32_t imm, W *out)
{
    st(out, _mm512_add_epi32(ld(a), _mm512_set1_epi32(imm)));
}

void
addImmPred32(const W *a, std::int32_t imm, std::uint64_t mask, W *out)
{
    const __m512i va = ld(a);
    st(out, _mm512_mask_add_epi32(va, static_cast<__mmask16>(mask), va,
                                  _mm512_set1_epi32(imm)));
}

void
addPred32(const W *a, const W *b, std::uint64_t mask, W *out)
{
    const __m512i va = ld(a);
    st(out, _mm512_mask_add_epi32(va, static_cast<__mmask16>(mask), va,
                                  ld(b)));
}

void
sel32(std::uint64_t mask, const W *a, const W *b, W *out)
{
    st(out, _mm512_mask_blend_epi32(static_cast<__mmask16>(mask), ld(b),
                                    ld(a)));
}

// ---- compares -----------------------------------------------------

std::uint64_t
cmpEq32(const W *a, const W *b)
{
    return _mm512_cmpeq_epi32_mask(ld(a), ld(b));
}

std::uint64_t
cmpNe32(const W *a, const W *b)
{
    return _mm512_cmpneq_epi32_mask(ld(a), ld(b));
}

std::uint64_t
cmpGt32(const W *a, const W *b)
{
    return _mm512_cmpgt_epi32_mask(ld(a), ld(b));
}

std::uint64_t
cmpLt32(const W *a, const W *b)
{
    return _mm512_cmplt_epi32_mask(ld(a), ld(b));
}

std::uint64_t
cmpEq64(const W *a, const W *b)
{
    return _mm512_cmpeq_epi64_mask(ld(a), ld(b));
}

std::uint64_t
cmpNe64(const W *a, const W *b)
{
    return _mm512_cmpneq_epi64_mask(ld(a), ld(b));
}

std::uint64_t
cmpGt64(const W *a, const W *b)
{
    return _mm512_cmpgt_epi64_mask(ld(a), ld(b));
}

std::uint64_t
cmpLt64(const W *a, const W *b)
{
    return _mm512_cmplt_epi64_mask(ld(a), ld(b));
}

// ---- byte runs ----------------------------------------------------

void
matchBytes32(const W *a, const W *b, W *out)
{
    // Per 32-bit element: countr_zero(x ^ y) >> 3, tz via the
    // popcount identity (tz(0) == 32 -> 4 matching bytes).
    const __m512i x = _mm512_xor_si512(ld(a), ld(b));
    const __m512i xm1 = _mm512_sub_epi32(x, _mm512_set1_epi32(1));
    const __m512i tz =
        _mm512_popcnt_epi32(_mm512_andnot_si512(x, xm1));
    st(out, _mm512_srli_epi32(tz, 3));
}

void
matchBytes32Rev(const W *a, const W *b, W *out)
{
    const __m512i x = _mm512_xor_si512(ld(a), ld(b));
    st(out, _mm512_srli_epi32(_mm512_lzcnt_epi32(x), 3));
}

// ---- width conversion ---------------------------------------------

void
widen8to32(const std::uint8_t *src, unsigned n, W *out)
{
    // Masked byte load: lanes beyond n are zeroed AND their loads are
    // suppressed, so reading never crosses past src + n (the scalar
    // loop's exact footprint).
    const auto k = static_cast<__mmask16>(
        n >= 16 ? 0xFFFF : ((1u << n) - 1));
    const __m128i bytes = _mm_maskz_loadu_epi8(k, src);
    st(out, _mm512_cvtepu8_epi32(bytes));
}

void
widenLo32to64(const W *v, W *out)
{
    st(out, _mm512_cvtepi32_epi64(
                _mm512_extracti64x4_epi64(ld(v), 0)));
}

void
widenHi32to64(const W *v, W *out)
{
    st(out, _mm512_cvtepi32_epi64(
                _mm512_extracti64x4_epi64(ld(v), 1)));
}

void
pack64to32(const W *lo, const W *hi, W *out)
{
    const __m256i l = _mm512_cvtepi64_epi32(ld(lo));
    const __m256i h = _mm512_cvtepi64_epi32(ld(hi));
    st(out, _mm512_inserti64x4(_mm512_castsi256_si512(l), h, 1));
}

// ---- CountALU -----------------------------------------------------

void
qzcount(const W *a, const W *b, unsigned shift, W *out)
{
    const __m512i x = _mm512_xor_si512(ld(a), ld(b));
    st(out, _mm512_srl_epi64(tzcnt64(x),
                             _mm_cvtsi32_si128(static_cast<int>(shift))));
}

void
qzcountRev(const W *a, const W *b, unsigned shift, W *out)
{
    const __m512i x = _mm512_xor_si512(ld(a), ld(b));
    st(out, _mm512_srl_epi64(_mm512_lzcnt_epi64(x),
                             _mm_cvtsi32_si128(static_cast<int>(shift))));
}

// ---- gather/scatter address math ----------------------------------

unsigned
compactAddrU32(std::uint64_t base, const W *idx, unsigned log2Scale,
               std::uint64_t mask, std::uint64_t *addrs)
{
    const __m512i v = ld(idx);
    const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(log2Scale));
    const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
    const __m512i lo = _mm512_add_epi64(
        vbase, _mm512_sll_epi64(
                   _mm512_cvtepu32_epi64(
                       _mm512_extracti64x4_epi64(v, 0)),
                   sh));
    const __m512i hi = _mm512_add_epi64(
        vbase, _mm512_sll_epi64(
                   _mm512_cvtepu32_epi64(
                       _mm512_extracti64x4_epi64(v, 1)),
                   sh));
    const auto kLo = static_cast<__mmask8>(mask);
    const auto kHi = static_cast<__mmask8>(mask >> 8);
    _mm512_mask_compressstoreu_epi64(addrs, kLo, lo);
    const unsigned nLo =
        static_cast<unsigned>(_mm_popcnt_u32(kLo));
    _mm512_mask_compressstoreu_epi64(addrs + nLo, kHi, hi);
    return nLo + static_cast<unsigned>(_mm_popcnt_u32(kHi));
}

unsigned
compactAddrI32(std::uint64_t base, const W *idx, std::uint64_t mask,
               std::uint64_t *addrs)
{
    const __m512i v = ld(idx);
    const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
    const __m512i lo = _mm512_add_epi64(
        vbase, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(v, 0)));
    const __m512i hi = _mm512_add_epi64(
        vbase, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(v, 1)));
    const auto kLo = static_cast<__mmask8>(mask);
    const auto kHi = static_cast<__mmask8>(mask >> 8);
    _mm512_mask_compressstoreu_epi64(addrs, kLo, lo);
    const unsigned nLo =
        static_cast<unsigned>(_mm_popcnt_u32(kLo));
    _mm512_mask_compressstoreu_epi64(addrs + nLo, kHi, hi);
    return nLo + static_cast<unsigned>(_mm_popcnt_u32(kHi));
}

unsigned
compactAddr64(std::uint64_t base, const W *idx, unsigned log2Scale,
              std::uint64_t mask, std::uint64_t *addrs)
{
    const __m512i v = _mm512_sll_epi64(
        ld(idx), _mm_cvtsi32_si128(static_cast<int>(log2Scale)));
    const __m512i a =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(base)),
                         v);
    const auto k = static_cast<__mmask8>(mask);
    _mm512_mask_compressstoreu_epi64(addrs, k, a);
    return static_cast<unsigned>(_mm_popcnt_u32(k));
}

} // namespace

const HostSimdOps &
hostSimdAvx512Table()
{
    static const HostSimdOps ops = [] {
        HostSimdOps t = hostSimdScalarOps();
        t.name = "avx512";
        t.and64 = and64;
        t.or64 = or64;
        t.xor64 = xor64;
        t.xnor64 = xnor64;
        t.add64 = add64;
        t.sub64 = sub64;
        t.min64 = min64;
        t.max64 = max64;
        t.addImm64 = addImm64;
        t.addImmPred64 = addImmPred64;
        t.addPred64 = addPred64;
        t.sel64 = sel64;
        t.shr64 = shr64;
        t.shl64 = shl64;
        t.ctz64 = ctz64;
        t.clz64 = clz64;
        t.add32 = add32;
        t.sub32 = sub32;
        t.min32 = min32;
        t.max32 = max32;
        t.addImm32 = addImm32;
        t.addImmPred32 = addImmPred32;
        t.addPred32 = addPred32;
        t.sel32 = sel32;
        t.cmpEq32 = cmpEq32;
        t.cmpNe32 = cmpNe32;
        t.cmpGt32 = cmpGt32;
        t.cmpLt32 = cmpLt32;
        t.cmpEq64 = cmpEq64;
        t.cmpNe64 = cmpNe64;
        t.cmpGt64 = cmpGt64;
        t.cmpLt64 = cmpLt64;
        t.matchBytes32 = matchBytes32;
        t.matchBytes32Rev = matchBytes32Rev;
        t.widen8to32 = widen8to32;
        t.widenLo32to64 = widenLo32to64;
        t.widenHi32to64 = widenHi32to64;
        t.pack64to32 = pack64to32;
        t.qzcount = qzcount;
        t.qzcountRev = qzcountRev;
        t.compactAddrU32 = compactAddrU32;
        t.compactAddrI32 = compactAddrI32;
        t.compactAddr64 = compactAddr64;
        return t;
    }();
    return ops;
}

} // namespace quetzal::isa
