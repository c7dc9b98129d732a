/**
 * @file
 * Batched structure-of-arrays MPP kernel with runtime SIMD dispatch.
 *
 * The campaign runner evaluates millions of nearly identical (G, T)
 * panel points per run; the scalar SolarCell entry points solve them
 * one Lambert-W call at a time, re-deriving every per-environment
 * constant (I0's pow+exp, Iph, the log prefactor) on each call. This
 * layer restructures the hot path two ways:
 *
 *  1. findMppBatch() advances many scenario lanes in one instruction
 *     stream over SoA inputs, hoisting the per-lane constants out of
 *     the Newton iterations. The lane loop is an explicit AVX2+FMA
 *     kernel (4-wide double vectors with polynomial exp/log) selected
 *     at runtime via CPUID; without AVX2 every lane takes the scalar
 *     findMpp(PvArray) path;
 *  2. PreparedArray caches one environment's derived constants so the
 *     controller's repeated pinRailVoltage() probes at a fixed
 *     environment cost a handful of warm Lambert evaluations instead
 *     of a full findMpp plus a 40-step std::function bisect each.
 *
 * The kernel choice governs findMppBatch() alone. PvKernel::Scalar
 * keeps its untouched per-lane findMpp(PvArray) call sequence as the
 * always-built parity oracle the AVX2 lanes are tested against; the
 * controller pins a uniform array through PreparedArray under either
 * kernel.
 *
 * Determinism contract: for a fixed kernel choice, results are a pure
 * function of the inputs -- independent of batch size, lane position
 * and thread count -- so campaign summaries stay byte-identical at any
 * --threads value.
 */

#ifndef SOLARCORE_PV_PV_KERNEL_HPP
#define SOLARCORE_PV_PV_KERNEL_HPP

#include <optional>
#include <span>
#include <string_view>

#include "pv/mpp.hpp"

namespace solarcore::pv {

/** The selectable batch-kernel implementations. */
enum class PvKernel
{
    Scalar = 0,  //!< legacy per-lane findMpp path (parity oracle)
    Avx2,        //!< explicit AVX2+FMA lanes (x86-64 with CPUID support)
};

/** Kernel token: "scalar" or "avx2". */
const char *pvKernelName(PvKernel kernel);

/** Best kernel this binary + machine can run (the "auto" choice). */
PvKernel detectPvKernel();

/** True when @p kernel was compiled in and the CPU can execute it. */
bool pvKernelSupported(PvKernel kernel);

/**
 * Resolve a --pv-kernel token: "auto" gives detectPvKernel(), a
 * kernel name gives that kernel when pvKernelSupported() holds.
 * Empty for an unknown token or a kernel this binary + machine
 * cannot run.
 */
std::optional<PvKernel> resolvePvKernel(std::string_view token);

/**
 * Select the process-global kernel. Asserts the kernel is supported.
 * Global and atomic, mirroring setNewtonIvSolve(); intended to be set
 * once at CLI startup (or per benchmark/test with save-restore).
 */
void setPvKernel(PvKernel kernel);

/** The active kernel; resolves to detectPvKernel() until set. */
PvKernel selectedPvKernel();

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
