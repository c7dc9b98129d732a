/**
 * @file
 * Lane-level implementation of the batched MPP kernel.
 *
 * The math is a header-only template over a small vector backend `V`
 * (VecAvx2 in pv_kernel_avx2.cpp: Reg = __m256d, width 4, compiled
 * with -mavx2 -mfma in its own TU behind runtime CPUID dispatch), so
 * the solver reads as scalar algebra while the backend owns every
 * intrinsic.
 *
 * The transcendentals are implemented on the backend primitives:
 * exp via the Cephes-style rational on the reduced argument with a
 * 2^k exponent splice, log via mantissa/exponent decomposition and the
 * atanh(s) odd series (|s| <= sqrt(2)-1 after normalization), and
 * W0(exp(y)) -- the diode solve's workhorse -- via Newton on
 * w + log w = y from seeds chosen to sit *below* the root, where the
 * concave iteration converges monotonically (w never leaves (0, w*],
 * so log w is always defined). Relative error is ~1e-15, far inside
 * the golden-comparison tolerances; exact special cases (dark lanes,
 * Rs = 0) are routed to the scalar formulas by the dispatch layer and
 * never reach these loops.
 *
 * Determinism: lane math is elementwise, iteration counts are fixed
 * (no data-dependent early exit), and no lane reads another lane, so
 * results are independent of batch size and lane position by
 * construction -- the property test in tests/pv/batch_kernel_test.cpp
 * asserts this bitwise.
 */

#ifndef SOLARCORE_PV_PV_KERNEL_DETAIL_HPP
#define SOLARCORE_PV_PV_KERNEL_DETAIL_HPP

#include <cstddef>

#include "pv/cell.hpp"

namespace solarcore::pv::detail {

/** Environment-independent constants hoisted out of the lane loops. */
struct CellConsts
{
    double iscRef;   //!< short-circuit current at STC [A]
    double alphaIsc; //!< relative Isc temperature coefficient [1/K]
    double rs;       //!< series resistance [ohm]
    double i0Ref;    //!< saturation current at STC [A]
    double nkOverQ;  //!< idealityN * k / q: Vt = nkOverQ * T_kelvin [V/K]
    double egOverNk; //!< Eg q / (n k) [K]
    double tRefK;    //!< STC cell temperature [K]

    static CellConsts from(const SolarCell &cell);
};

// --- transcendental kernels (templated on the backend) --------------

/**
 * exp(x) for x in [-700, 700] (clamped), ~1 ulp: Cephes rational on
 * the ln2-reduced argument, exponent spliced back by pow2i.
 */
template <typename V>
typename V::Reg
vExp(typename V::Reg x)
{
    using R = typename V::Reg;
    const R hi = V::bcast(700.0);
    const R lo = V::bcast(-700.0);
    x = V::min(V::max(x, lo), hi);

    const R log2e = V::bcast(1.4426950408889634074);
    const R neg_ln2_hi = V::bcast(-6.93145751953125e-1);
    const R neg_ln2_lo = V::bcast(-1.42860682030941723212e-6);
    const R k = V::roundNearest(x * log2e);
    R r = V::mulAdd(k, neg_ln2_hi, x);
    r = V::mulAdd(k, neg_ln2_lo, r);

    const R z = r * r;
    // exp(r) = 1 + 2 r P(z) / (Q(z) - r P(z)), Cephes expml coefficients.
    R p = V::bcast(1.26177193074810590878e-4);
    p = V::mulAdd(p, z, V::bcast(3.02994407707441961300e-2));
    p = V::mulAdd(p, z, V::bcast(9.99999999999999999910e-1));
    R q = V::bcast(3.00198505138664455042e-6);
    q = V::mulAdd(q, z, V::bcast(2.52448340349684104192e-3));
    q = V::mulAdd(q, z, V::bcast(2.27265548208155028766e-1));
    q = V::mulAdd(q, z, V::bcast(2.00000000000000000005e0));
    const R rp = r * p;
    const R er = V::bcast(1.0) + (rp + rp) / (q - rp);
    return er * V::pow2i(k);
}

/**
 * log(x) for finite x > 0, ~1-2 ulp: x = m 2^e with m renormalized to
 * [sqrt(2)/2, sqrt(2)), then log m = 2 atanh(s) with s = (m-1)/(m+1)
 * (|s| <= sqrt(2)-1 / sqrt(2)+1 ~= 0.172) by its odd series.
 */
template <typename V>
typename V::Reg
vLog(typename V::Reg x)
{
    using R = typename V::Reg;
    R m, e;
    V::frexpParts(x, &m, &e);
    // Renormalize so s stays small on both sides of 1.
    const auto big = V::cmpGt(m, V::bcast(1.4142135623730951));
    m = V::select(big, m * V::bcast(0.5), m);
    e = V::select(big, e + V::bcast(1.0), e);

    const R one = V::bcast(1.0);
    const R s = (m - one) / (m + one);
    const R z = s * s;
    // atanh(s)/s - 1 = z/3 + z^2/5 + ... ; z <= 0.0295 so ten terms
    // reach ~1e-16 relative.
    R t = V::bcast(1.0 / 19.0);
    t = V::mulAdd(t, z, V::bcast(1.0 / 17.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 15.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 13.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 11.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 9.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 7.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 5.0));
    t = V::mulAdd(t, z, V::bcast(1.0 / 3.0));

    const R ln2_hi = V::bcast(6.93145751953125e-1);
    const R ln2_lo = V::bcast(1.42860682030941723212e-6);
    const R two_s = s + s;
    // Sum smallest-first so the e*ln2_hi + 2s leading terms dominate.
    return V::mulAdd(e, ln2_hi,
                     two_s + V::mulAdd(two_s * z, t, e * ln2_lo));
}

/** log1p(x) for x > -1 via the u = 1 + x rounding correction. */
template <typename V>
typename V::Reg
vLog1p(typename V::Reg x)
{
    using R = typename V::Reg;
    const R one = V::bcast(1.0);
    const R u = one + x;
    const R d = u - one; // the part of x that survived the rounding
    // log1p(x) = log(u) * x / (u - 1) exactly compensates the rounding
    // of u; guard the u == 1 (x ~ 0) lane where d underflows to 0.
    const auto exact = V::cmpLe(V::max(d, V::bcast(0.0) - d), V::bcast(0.0));
    const R ratio = x / V::select(exact, one, d);
    return V::select(exact, x, vLog<V>(u) * ratio);
}

/**
 * W0(exp(y)): the w > 0 solving w + log w = y, any real y (clamped at
 * -700 where w ~ e^y underflows anyway).
 *
 * Both seeds sit below the root -- y - log y for y > 1 (the scalar
 * path's asymptote) and e^y/(1+e^y) otherwise (second-order accurate
 * for y << 0, provably below the root for all y) -- so the Newton
 * iteration on the concave g(w) = w + log w - y increases monotonically
 * and w never leaves (0, w*]. Eight fixed iterations reach ~1e-16
 * relative from either seed; no early exit, for lane determinism.
 */
template <typename V>
typename V::Reg
vW0exp(typename V::Reg y)
{
    using R = typename V::Reg;
    const R one = V::bcast(1.0);
    y = V::max(y, V::bcast(-700.0));

    const auto asym = V::cmpGt(y, one);
    const R seed_hi = y - vLog<V>(V::max(y, one));
    const R ey = vExp<V>(V::min(y, one));
    const R seed_lo = ey / (one + ey);
    R w = V::select(asym, seed_hi, seed_lo);

    for (int it = 0; it < 8; ++it) {
        const R g = w + vLog<V>(w) - y;
        w = w - g * w / (w + one);
    }
    return w;
}

/** Per-lane derived environment constants (all G lanes must be > 0). */
template <typename V>
struct EnvLanes
{
    typename V::Reg vt;   //!< thermal voltage [V]
    typename V::Reg iph;  //!< photocurrent [A]
    typename V::Reg i0;   //!< saturation current [A]
    typename V::Reg a;    //!< iph + i0 [A]
    typename V::Reg l1p;  //!< log1p(iph / i0)
    typename V::Reg voc;  //!< open-circuit voltage [V]
};

template <typename V>
EnvLanes<V>
prepareEnv(const CellConsts &c, typename V::Reg g, typename V::Reg t)
{
    using R = typename V::Reg;
    EnvLanes<V> env;
    const R tk = t + V::bcast(273.15);
    env.vt = V::bcast(c.nkOverQ) * tk;
    env.iph = V::bcast(c.iscRef * (1.0 / 1000.0)) * g *
        (V::bcast(1.0) + V::bcast(c.alphaIsc) * (t - V::bcast(25.0)));
    const R ratio = tk * V::bcast(1.0 / c.tRefK);
    env.i0 = V::bcast(c.i0Ref) * ratio * ratio * ratio *
        vExp<V>(V::bcast(c.egOverNk) *
                (V::bcast(1.0 / c.tRefK) - V::bcast(1.0) / tk));
    env.a = env.iph + env.i0;
    env.l1p = vLog1p<V>(env.iph / env.i0);
    env.voc = env.vt * env.l1p;
    return env;
}

/**
 * One lane group of the batched cell MPP solve (light lanes, Rs > 0).
 *
 * Solves the same root as SolarCell::mppVoltage -- g(V) = I + V I' = 0
 * -- but parametrized by the Lambert variable w instead of V. Along
 * the I-V curve, V(w) = Vt (w + log w - logC) and I(w) = A - (Vt/Rs) w,
 * so one lane log per iteration replaces the full W0exp re-solve (which
 * itself costs eight logs) the V-space iteration would need:
 *
 *   h(w)  = I(w) + V(w) I'(V) = A - (Vt/Rs) w - V(w) w / (Rs (1 + w))
 *   h'(w) = -(2 Vt + V(w) / (1 + w)^2) / Rs
 *
 * The scalar path's seed (the Rs = 0 closed form shifted by the series
 * drop) is mapped into w-space with one cold Lambert solve; after that
 * the bracketed Newton runs a fixed 12 iterations (no early exit, for
 * lane determinism) with masked bracket updates. The lower bracket
 * w = 0 is a pure sentinel: h > 0 everywhere below the root, and its
 * value is never evaluated there. The upper bracket is exact:
 * I(w_hi) = 0 at w_hi = A Rs / Vt. V(w) is strictly increasing in w and
 * g is strictly decreasing in V on the bracket, so h keeps the one sign
 * change the bisection fallback needs; steps that escape the bracket
 * (or meet a non-negative h', possible only in the far sub-zero-volt
 * tail) are replaced by the bracket midpoint.
 */
template <typename V>
void
mppLanes(const CellConsts &c, typename V::Reg g, typename V::Reg t,
         typename V::Reg *v_out, typename V::Reg *i_out)
{
    using R = typename V::Reg;
    const R zero = V::bcast(0.0);
    const R one = V::bcast(1.0);
    const EnvLanes<V> env = prepareEnv<V>(c, g, t);
    const R rs = V::bcast(c.rs);
    const R inv_vt = one / env.vt;
    const R s = env.vt / rs;
    const R log_c = vLog<V>(env.i0 * rs * inv_vt) + env.a * rs * inv_vt;

    const R v0 = env.vt * (vW0exp<V>(one + env.l1p) - one);
    const R v_seed =
        V::min(V::max(v0 - env.iph * rs, zero), env.voc);
    R w = vW0exp<V>(log_c + v_seed * inv_vt);

    R lo = zero;
    R hi = env.a * rs * inv_vt;

    for (int it = 0; it < 12; ++it) {
        const R v = env.vt * (w + vLog<V>(w) - log_c);
        const R opw = one + w;
        const R h = env.a - s * w - v * w / (rs * opw);
        const R dh = zero - (env.vt + env.vt + v / (opw * opw)) / rs;

        const auto left = V::cmpGt(h, zero);
        lo = V::select(left, w, lo);
        hi = V::select(left, hi, w);

        R next = w - h / dh;
        const R mid = V::bcast(0.5) * (lo + hi);
        auto escaped =
            V::maskOr(V::cmpLe(next, lo), V::cmpGe(next, hi));
        escaped = V::maskOr(escaped, V::cmpGe(dh, zero));
        // A vanishing Newton step means w already sits on the root;
        // keep it even when it grazes the freshly tightened bracket
        // edge (same converged-before-escape order as the scalar
        // refineMppVoltage, which would otherwise bisect away from an
        // already-converged lane).
        const R step = next - w;
        const auto converged =
            V::cmpLe(V::max(step, zero - step),
                     V::bcast(1e-15) * (one + V::max(w, zero - w)));
        w = V::select(converged, next, V::select(escaped, mid, next));
    }

    *v_out = env.vt * (w + vLog<V>(w) - log_c);
    *i_out = V::max(zero, env.a - s * w);
}

// --- batch entry point ---------------------------------------------
//
// Inputs are SoA lane arrays with every lane sanitized by the dispatch
// layer: G > 0 and Rs > 0 (dark and Rs = 0 lanes take the exact scalar
// formulas there and never reach these). The implementation pads the
// remainder internally, so n may be any length.

#ifdef SOLARCORE_HAVE_AVX2
void mppBatchAvx2(const CellConsts &c, const double *g, const double *t,
                  std::size_t n, double *v_out, double *i_out);
#endif

/** Lane-loop driver: pads the tail to a full lane group. */
template <typename V>
void
mppBatchImpl(const CellConsts &c, const double *g, const double *t,
             std::size_t n, double *v_out, double *i_out)
{
    constexpr std::size_t W = static_cast<std::size_t>(V::width);
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        typename V::Reg vm, im;
        mppLanes<V>(c, V::load(g + k), V::load(t + k), &vm, &im);
        V::store(v_out + k, vm);
        V::store(i_out + k, im);
    }
    if (k < n) {
        double gp[W], tp[W], vp[W], ip[W];
        for (std::size_t j = 0; j < W; ++j) {
            const std::size_t src = k + j < n ? k + j : n - 1;
            gp[j] = g[src];
            tp[j] = t[src];
        }
        typename V::Reg vm, im;
        mppLanes<V>(c, V::load(gp), V::load(tp), &vm, &im);
        V::store(vp, vm);
        V::store(ip, im);
        for (std::size_t j = 0; k + j < n; ++j) {
            v_out[k + j] = vp[j];
            i_out[k + j] = ip[j];
        }
    }
}

} // namespace solarcore::pv::detail

#endif // SOLARCORE_PV_PV_KERNEL_DETAIL_HPP
