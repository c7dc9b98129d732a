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
 *  2. PreparedArray caches one environment's derived constants (a
 *     PreparedEnvironment) so the controller's repeated
 *     pinRailVoltage() probes at a fixed environment cost a handful
 *     of warm Lambert evaluations instead of a full findMpp plus a
 *     40-step std::function bisect each. A day stage prepares every
 *     step once and shares the states with each unit replaying it.
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
 * One environment's derived state for a uniform PV array: the
 * Lambert-W constants, the open-circuit voltage, the scalar MPP and
 * the w-space bracket of the stable branch. PreparedArray::prepare()
 * computes it as a pure function of the environment (and the array),
 * so a day stage can prepare every step once and hand the same bits
 * to every unit that replays the day.
 */
struct PreparedEnvironment
{
    Environment env{-1.0, -1000.0}; //!< sentinel: never a real env
    bool dark = true;
    double vt = 0.0;
    double iph = 0.0;
    double i0 = 0.0;
    double a = 0.0;        //!< Iph + I0
    double logC = 0.0;     //!< log(I0 Rs / Vt) + A Rs / Vt
    double vocArray = 0.0; //!< array open-circuit voltage [V]
    MppResult mpp;         //!< array MPP, findMpp(PvArray)'s own calls
    double wMpp = 0.0; //!< Lambert w at the cell MPP voltage (Rs > 0)
    double wVoc = 0.0; //!< Lambert w where I = 0: A Rs / Vt (Rs > 0)
};

/**
 * Per-environment prepared solver for one uniform PV array.
 *
 * prepare() derives the Lambert-W constants (Vt, Iph, I0, the log
 * prefactor) and the analytic MPP of one environment; adopt()
 * installs such a state, and setEnvironment() is adopt(prepare(env))
 * when the environment bits changed. currentAt() and
 * solveStableBranch() then evaluate the single-diode curve with one
 * warm lambertW0exp() each. The controller's sustainable() probes and
 * rail pinning re-query the same environment dozens of times per
 * simulation step, which is exactly the redundancy this removes.
 *
 * The MPP is computed with the same scalar code path findMpp(PvArray)
 * uses, so feasibility decisions (p_needed > mpp.power) are bitwise
 * identical to the legacy pin path, whether the state was prepared
 * here on the first pin of a step or staged once for the whole day.
 */
class PreparedArray
{
  public:
    PreparedArray(const PvModule &module, int modules_series,
                  int modules_parallel);

    /** The derived state of @p env; touches nothing in this array. */
    PreparedEnvironment prepare(const Environment &env) const;

    /**
     * Install @p state, which must come from prepare() on an array of
     * the same module and arrangement. The warm seed of the next
     * stable-branch solve is kept, exactly as setEnvironment() keeps
     * it.
     */
    void adopt(const PreparedEnvironment &state);

    /** adopt(prepare(env)); a no-op when the bits are unchanged. */
    void setEnvironment(const Environment &env);

    bool dark() const { return state_.dark; }

    /** Array open-circuit voltage at the prepared environment [V]. */
    double openCircuitVoltage() const { return state_.vocArray; }

    /** Array-level MPP at the prepared environment. */
    const MppResult &mpp() const { return state_.mpp; }

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
    double rs_;     //!< cell series resistance
    int modulesSeries_;
    int cellsSeries_;
    int stringsParallel_;
    int modulesParallel_;

    bool prepared_ = false;
    PreparedEnvironment state_;
    //! Previous stable-branch root (in w), seeding the next pin's
    //! Newton solve while it still lies inside the fresh bracket.
    mutable double warmW_ = -1.0;
};

} // namespace solarcore::pv

#endif // SOLARCORE_PV_PV_KERNEL_HPP
