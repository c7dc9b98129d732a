/**
 * @file
 * AVX2+FMA instantiation of the batched MPP lane kernel.
 *
 * This translation unit is the only one compiled with -mavx2 -mfma
 * (see src/pv/CMakeLists.txt); it must stay free of code that could be
 * called on a non-AVX2 machine. The dispatcher in pv_kernel.cpp only
 * routes here after cpuHasAvx2() confirms both the CPUID feature bits
 * and OS ymm-state support.
 *
 * The backend maps the Vec concept onto 4-wide double vectors: GCC/
 * Clang vector-extension arithmetic on __m256d (never contracted: the
 * TU builds with -ffp-contract=off and mulAdd spells every FMA),
 * blendv for masked selects, and the
 * 64-bit integer lanes of AVX2 for the exponent splice / mantissa
 * decomposition that vExp / vLog are built on.
 */

#ifdef SOLARCORE_HAVE_AVX2

#include <immintrin.h>

#include "pv/pv_kernel_detail.hpp"

namespace solarcore::pv::detail {

namespace {

struct VecAvx2
{
    static constexpr int width = 4;
    using Reg = __m256d;
    using Mask = __m256d; //!< all-ones / all-zero lanes from _mm256_cmp_pd

    static Reg bcast(double x) { return _mm256_set1_pd(x); }
    static Reg load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm256_storeu_pd(p, x); }
    static Reg min(Reg a, Reg b) { return _mm256_min_pd(a, b); }
    static Reg max(Reg a, Reg b) { return _mm256_max_pd(a, b); }
    static Mask cmpGt(Reg a, Reg b)
    {
        return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
    }
    static Mask cmpLe(Reg a, Reg b)
    {
        return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    }
    static Mask cmpGe(Reg a, Reg b)
    {
        return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
    }
    static Mask maskOr(Mask a, Mask b) { return _mm256_or_pd(a, b); }
    //! Unconditionally fused: the TU builds with -ffp-contract=off, so
    //! every FMA this kernel executes is spelled here explicitly.
    static Reg mulAdd(Reg a, Reg b, Reg c)
    {
        return _mm256_fmadd_pd(a, b, c);
    }
    static Reg select(Mask m, Reg a, Reg b)
    {
        return _mm256_blendv_pd(b, a, m);
    }

    static Reg
    roundNearest(Reg x)
    {
        return _mm256_round_pd(x,
                               _MM_FROUND_TO_NEAREST_INT |
                                   _MM_FROUND_NO_EXC);
    }

    /** 2^k for integer-valued k in [-1022, 1023], by exponent splice. */
    static Reg
    pow2i(Reg k)
    {
        // k is small and integral: widen via int32 (exact for |k|<2^31).
        const __m128i k32 = _mm256_cvtpd_epi32(k);
        const __m256i k64 = _mm256_cvtepi32_epi64(k32);
        const __m256i bits = _mm256_slli_epi64(
            _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
        return _mm256_castsi256_pd(bits);
    }

    /** Decompose finite x > 0 as m * 2^e with m in [1, 2). */
    static void
    frexpParts(Reg x, Reg *m, Reg *e)
    {
        const __m256i bits = _mm256_castpd_si256(x);
        const __m256i raw_exp = _mm256_srli_epi64(bits, 52);
        // Unbiased exponent as a double: the shifted value fits in 32
        // bits per lane, so an int32-style convert via packing works;
        // simplest exact route is subtract-bias in int64 then convert
        // through the 2^52 magic-number trick.
        const __m256i biased = _mm256_and_si256(
            raw_exp, _mm256_set1_epi64x(0x7ff));
        // int64 -> double for 0 <= v < 2^52: OR the bits into the
        // mantissa of 2^52 and subtract 2^52.
        const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
        const __m256d magic_d = _mm256_castsi256_pd(magic_i);
        const __m256d biased_d = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(biased, magic_i)),
            magic_d);
        *e = _mm256_sub_pd(biased_d, _mm256_set1_pd(1023.0));
        const __m256i mant = _mm256_or_si256(
            _mm256_and_si256(bits,
                             _mm256_set1_epi64x(0x000fffffffffffffLL)),
            _mm256_set1_epi64x(0x3ff0000000000000LL));
        *m = _mm256_castsi256_pd(mant);
    }
};

} // namespace

void
mppBatchAvx2(const CellConsts &c, const double *g, const double *t,
             std::size_t n, double *v_out, double *i_out)
{
    mppBatchImpl<VecAvx2>(c, g, t, n, v_out, i_out);
}

} // namespace solarcore::pv::detail

#endif // SOLARCORE_HAVE_AVX2
