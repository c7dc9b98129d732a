/**
 * @file
 * Batched structure-of-arrays PV kernels with runtime SIMD dispatch.
 *
 * The campaign runner evaluates millions of nearly identical (G, T)
 * panel points per run; the scalar SolarCell entry points solve them
 * one Lambert-W call at a time, re-deriving every per-environment
 * constant (I0's pow+exp, Iph, the log prefactor) on each call. This
 * layer restructures the hot path three ways:
 *
 *  1. evalIv() / findMppBatch() advance many scenario lanes in one
 *     instruction stream over SoA inputs, hoisting the per-lane
 *     constants out of the Newton iterations;
 *  2. the lane loop exists twice -- a portable kernel built with the
 *     baseline ISA, and an explicit AVX2+FMA kernel (4-wide double
 *     vectors with polynomial exp/log) selected at runtime via CPUID.
 *     On non-x86 targets the portable loop is what the native SIMD
 *     (e.g. NEON) autovectorizer sees;
 *  3. PreparedArray caches one environment's derived constants so the
 *     controller's repeated pinRailVoltage() probes at a fixed
 *     environment cost a handful of warm Lambert evaluations instead
 *     of a full findMpp plus a 40-step std::function bisect each.
 *
 * PvKernel::Scalar preserves the untouched legacy call sequence as the
 * always-built parity oracle, exactly like the Newton oracle:
 * selecting it routes every consumer (the day drivers' staged MPPs,
 * the controller) through the original per-call scalar code path.
 *
 * Determinism contract: for a fixed kernel choice, results are a pure
 * function of the inputs -- independent of batch size, lane position
 * and thread count -- so campaign summaries stay byte-identical at any
 * --threads value.
 */

#ifndef SOLARCORE_PV_PV_KERNEL_HPP
#define SOLARCORE_PV_PV_KERNEL_HPP

#include <span>
#include <string_view>

#include "pv/mpp.hpp"

namespace solarcore::pv {

/** The selectable batch-kernel implementations. */
enum class PvKernel
{
    Scalar = 0,  //!< legacy per-call scalar path (parity oracle)
    Portable,    //!< SoA lane loop, baseline ISA
    Avx2,        //!< explicit AVX2+FMA lanes (x86-64 with CPUID support)
};

/** Kernel token: "scalar", "portable" or "avx2". */
const char *pvKernelName(PvKernel kernel);

/** Parse a kernel token; returns false on an unknown token ("auto"
 *  is not a kernel -- resolve it with detectPvKernel()). */
bool pvKernelFromToken(std::string_view token, PvKernel &out);

/** Best kernel this binary + machine can run (the "auto" choice). */
PvKernel detectPvKernel();

/** True when @p kernel was compiled in and the CPU can execute it. */
bool pvKernelSupported(PvKernel kernel);

/**
 * Select the process-global kernel. Asserts the kernel is supported.
 * Global and atomic, mirroring setNewtonIvSolve(); intended to be set
 * once at CLI startup (or per benchmark/test with save-restore).
 */
void setPvKernel(PvKernel kernel);

/** The active kernel; resolves to detectPvKernel() until set. */
PvKernel selectedPvKernel();

/** One lane of a batched I-V evaluation. */
struct IvOut
{
    double current = 0.0; //!< I(v) [A], same sign convention as currentAt
    double slope = 0.0;   //!< dI/dV [A/V], always <= 0
};

/**
 * Batched cell-level I-V evaluation: out[k] = {I, dI/dV} of @p cell at
 * terminal voltage v[k] under envs[k]. Lanes are independent; dark
 * (G <= 0) and Rs = 0 lanes fall back to the exact scalar formulas so
 * special-case parity is bitwise. All spans must have equal length.
 */
void evalIv(const SolarCell &cell, std::span<const Environment> envs,
            std::span<const double> v, std::span<IvOut> out);

/**
 * Batched array-level MPP solve: out[k] = MPP of the uniform
 * series-parallel arrangement under envs[k], matching the analytic
 * findMpp(PvArray) within Newton convergence tolerance. Dark lanes
 * yield the all-zero MppResult. Under the Scalar kernel or the Newton
 * oracle every lane is exactly findMpp(PvArray). Spans must have
 * equal length.
 */
void findMppBatch(const PvModule &module, int modules_series,
                  int modules_parallel, std::span<const Environment> envs,
                  std::span<MppResult> out);

/**
 * Per-environment prepared solver for one uniform PV array.
 *
 * setEnvironment() derives the Lambert-W constants (Vt, Iph, I0, the
 * log prefactor) and the analytic MPP once; currentAt() and
 * solveStableBranch() then evaluate the single-diode curve with one
 * warm lambertW0exp() each. The controller's sustainable() probes and
 * rail pinning re-query the same environment dozens of times per
 * simulation step, which is exactly the redundancy this removes.
 *
 * The MPP is computed with the same scalar code path findMpp(PvArray)
 * uses, so feasibility decisions (p_needed > mpp.power) are bitwise
 * identical to the legacy pin path.
 */
class PreparedArray
{
  public:
    PreparedArray(const PvModule &module, int modules_series,
                  int modules_parallel);

    /** Rebind to @p env; a no-op when the bits are unchanged. */
    void setEnvironment(const Environment &env);

    bool dark() const { return dark_; }

    /** Array open-circuit voltage at the prepared environment [V]. */
    double openCircuitVoltage() const { return vocArray_; }

    /** Array-level MPP at the prepared environment. */
    const MppResult &mpp() const { return mpp_; }

    /** Array terminal current at array voltage @p v_array [A]. */
    double currentAt(double v_array) const;

    /**
     * Solve v * I(v) = @p p_array_w on the stable branch
     * [Vmpp, Voc] (P falls monotonically from Pmpp to 0 there).
     * Safeguarded Newton with the analytic slope; requires
     * p_array_w <= mpp().power. Returns false when the solve cannot
     * converge (dark array or infeasible power).
     */
    bool solveStableBranch(double p_array_w, double &v_array,
                           double &i_array) const;

  private:
    /** Cell current at cell voltage @p v_cell (hoisted constants). */
    double cellCurrentAt(double v_cell) const;

    SolarCell cell_;
    double vScale_; //!< cellsSeries * modulesSeries
    double iScale_; //!< stringsParallel * modulesParallel
    int modulesSeries_;
    int cellsSeries_;
    int stringsParallel_;
    int modulesParallel_;

    Environment env_{-1.0, -1000.0}; //!< sentinel: never a real env
    bool prepared_ = false;
    bool dark_ = true;
    double vt_ = 0.0;
    double iph_ = 0.0;
    double i0_ = 0.0;
    double a_ = 0.0;   //!< Iph + I0
    double rs_ = 0.0;
    double logC_ = 0.0; //!< log(I0 Rs / Vt) + A Rs / Vt
    double vocCell_ = 0.0;
    double vocArray_ = 0.0;
    MppResult mpp_;
    double wMpp_ = 0.0; //!< Lambert w at the cell MPP voltage (Rs > 0)
    double wVoc_ = 0.0; //!< Lambert w where I = 0: A Rs / Vt (Rs > 0)
    //! Previous stable-branch root (in w), seeding the next pin's
    //! Newton solve while it still lies inside the fresh bracket.
    mutable double warmW_ = -1.0;
};

} // namespace solarcore::pv

#endif // SOLARCORE_PV_PV_KERNEL_HPP
