#include "pv_kernel.hpp"

#include <atomic>
#include <cmath>

#include "obs/profiler.hpp"
#include "pv/pv_kernel_detail.hpp"
#include "util/cpuid.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace solarcore::pv {

namespace detail {

CellConsts
CellConsts::from(const SolarCell &cell)
{
    constexpr double kBoltzmann = 1.380649e-23;   // [J/K]
    constexpr double kElectron = 1.602176634e-19; // [C]
    const CellParams &p = cell.params();
    CellConsts c;
    c.iscRef = p.iscRef;
    c.alphaIsc = p.alphaIsc;
    c.rs = p.seriesRes;
    c.i0Ref = cell.saturationCurrentRef();
    c.nkOverQ = p.idealityN * kBoltzmann / kElectron;
    c.egOverNk = p.bandgapEv * kElectron / (p.idealityN * kBoltzmann);
    c.tRefK = kelvin(kStc.cellTempC);
    return c;
}

} // namespace detail

namespace {

// -1 = unset: resolve lazily to detectPvKernel(). Mirrors the Newton
// oracle flag: global, relaxed atomics, set once at startup.
std::atomic<int> g_pv_kernel{-1};

#ifdef SOLARCORE_HAVE_AVX2
// Lane-chunk size for the SoA gather buffers: big enough to amortize
// the loop overhead, small enough to live on the stack.
constexpr std::size_t kChunk = 128;

/** findMppBatch on the AVX2 lanes; the cell must have Rs > 0. */
void
findMppBatchAvx2(const PvModule &module, int modules_series,
                 int modules_parallel, std::span<const Environment> envs,
                 std::span<MppResult> out)
{
    const detail::CellConsts consts =
        detail::CellConsts::from(module.cell());
    const double v_scale =
        static_cast<double>(module.cellsSeries() * modules_series);
    const double i_scale =
        static_cast<double>(module.stringsParallel() * modules_parallel);
    alignas(64) double gs[kChunk], ts[kChunk];
    alignas(64) double vm[kChunk], im[kChunk];
    for (std::size_t base = 0; base < envs.size(); base += kChunk) {
        const std::size_t m = std::min(kChunk, envs.size() - base);
        for (std::size_t j = 0; j < m; ++j) {
            const Environment &e = envs[base + j];
            // Dark lanes run the vector math on a benign stand-in and
            // are overwritten with the exact all-zero MPP below (lanes
            // are independent, so the stand-in affects nothing).
            const bool dark = e.irradiance <= 0.0;
            gs[j] = dark ? kStc.irradiance : e.irradiance;
            ts[j] = e.cellTempC;
        }
        detail::mppBatchAvx2(consts, gs, ts, m, vm, im);
        for (std::size_t j = 0; j < m; ++j) {
            if (envs[base + j].irradiance <= 0.0) {
                out[base + j] = MppResult{};
            } else {
                MppResult &r = out[base + j];
                r.voltage = vm[j] * v_scale;
                r.current = im[j] * i_scale;
                r.power = r.voltage * r.current;
            }
        }
    }
}
#endif

} // namespace

const char *
pvKernelName(PvKernel kernel)
{
    switch (kernel) {
    case PvKernel::Scalar:
        return "scalar";
    case PvKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

PvKernel
detectPvKernel()
{
#ifdef SOLARCORE_HAVE_AVX2
    if (cpuHasAvx2())
        return PvKernel::Avx2;
#endif
    return PvKernel::Scalar;
}

bool
pvKernelSupported(PvKernel kernel)
{
    switch (kernel) {
    case PvKernel::Scalar:
        return true;
    case PvKernel::Avx2:
#ifdef SOLARCORE_HAVE_AVX2
        return cpuHasAvx2();
#else
        return false;
#endif
    }
    return false;
}

std::optional<PvKernel>
resolvePvKernel(std::string_view token)
{
    if (token == "auto")
        return detectPvKernel();
    for (PvKernel kernel : {PvKernel::Scalar, PvKernel::Avx2})
        if (token == pvKernelName(kernel) && pvKernelSupported(kernel))
            return kernel;
    return std::nullopt;
}

void
setPvKernel(PvKernel kernel)
{
    SC_ASSERT(pvKernelSupported(kernel),
              "setPvKernel: kernel not available on this build/machine");
    g_pv_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

PvKernel
selectedPvKernel()
{
    const int raw = g_pv_kernel.load(std::memory_order_relaxed);
    if (raw >= 0)
        return static_cast<PvKernel>(raw);
    const PvKernel detected = detectPvKernel();
    // Benign race: every thread detects the same value.
    g_pv_kernel.store(static_cast<int>(detected),
                      std::memory_order_relaxed);
    return detected;
}

void
findMppBatch(const PvModule &module, int modules_series,
             int modules_parallel, std::span<const Environment> envs,
             std::span<MppResult> out)
{
    SC_ASSERT(envs.size() == out.size(),
              "findMppBatch: span lengths differ");
    SC_ASSERT(modules_series > 0 && modules_parallel > 0,
              "findMppBatch: arrangement must be positive");
    SC_PROFILE_SCOPE("pv.findMppBatch");
#ifdef SOLARCORE_HAVE_AVX2
    if (selectedPvKernel() == PvKernel::Avx2 && !newtonIvSolve() &&
        module.cell().params().seriesRes > 0.0) {
        findMppBatchAvx2(module, modules_series, modules_parallel, envs,
                         out);
        return;
    }
#endif
    // Parity-oracle route: exact per-lane findMpp(PvArray), including
    // the golden-section path under the Newton oracle and the exact
    // expm1 formulas of an Rs = 0 cell.
    PvArray array(module, modules_series, modules_parallel, kStc);
    for (std::size_t k = 0; k < envs.size(); ++k) {
        array.setEnvironment(envs[k]);
        out[k] = findMpp(array);
    }
}

PreparedArray::PreparedArray(const PvModule &module, int modules_series,
                             int modules_parallel)
    : cell_(module.cell()),
      vScale_(static_cast<double>(module.cellsSeries() * modules_series)),
      iScale_(
          static_cast<double>(module.stringsParallel() * modules_parallel)),
      rs_(module.cell().params().seriesRes),
      modulesSeries_(modules_series), cellsSeries_(module.cellsSeries()),
      stringsParallel_(module.stringsParallel()),
      modulesParallel_(modules_parallel)
{
    SC_ASSERT(modules_series > 0 && modules_parallel > 0,
              "PreparedArray: arrangement must be positive");
}

PreparedEnvironment
PreparedArray::prepare(const Environment &env) const
{
    PreparedEnvironment s;
    s.env = env;
    s.vt = cell_.thermalVoltage(env.cellTempC);
    s.i0 = cell_.saturationCurrent(env.cellTempC);
    s.dark = env.irradiance <= 0.0;
    if (s.dark) {
        s.a = s.i0;
        return s;
    }
    s.iph = cell_.photoCurrent(env);
    s.a = s.iph + s.i0;
    s.logC = rs_ > 0.0
        ? std::log(s.i0 * rs_ / s.vt) + s.a * rs_ / s.vt
        : 0.0;
    s.vocArray = cell_.openCircuitVoltage(env) * vScale_;

    // The MPP runs through the very same scalar calls findMpp(PvArray)
    // makes, so the feasibility threshold a pin decision compares
    // against (p_needed > mpp.power) is bitwise identical to the
    // legacy path's.
    const double v_cell = cell_.mppVoltage(env);
    const double i_cell = std::max(0.0, cell_.currentAt(v_cell, env));
    s.mpp.voltage = v_cell * vScale_;
    s.mpp.current = i_cell * iScale_;
    s.mpp.power = s.mpp.voltage * s.mpp.current;

    // w-space bracket of the stable branch [Vmpp, Voc] for the pin
    // solver: one cold Lambert solve at the MPP; the Voc end is exact
    // (I = 0 at w = A Rs / Vt).
    if (rs_ > 0.0) {
        s.wMpp = lambertW0exp(s.logC + v_cell / s.vt);
        s.wVoc = s.a * rs_ / s.vt;
    }
    return s;
}

void
PreparedArray::adopt(const PreparedEnvironment &state)
{
    state_ = state;
    prepared_ = true;
}

void
PreparedArray::setEnvironment(const Environment &env)
{
    if (prepared_ && env.irradiance == state_.env.irradiance &&
        env.cellTempC == state_.env.cellTempC)
        return;
    adopt(prepare(env));
}

double
PreparedArray::cellCurrentAt(double v_cell) const
{
    const PreparedEnvironment &s = state_;
    if (s.dark || rs_ <= 0.0)
        return s.iph - s.i0 * std::expm1(v_cell / s.vt);
    const double w = lambertW0exp(s.logC + v_cell / s.vt);
    return s.a - w * s.vt / rs_;
}

double
PreparedArray::currentAt(double v_array) const
{
    SC_ASSERT(prepared_, "PreparedArray: no environment set");
    // Same operation order as PvArray::currentAt -> PvModule::currentAt
    // (module voltage, then cell voltage, clamp, then the two parallel
    // scalings) so the curve matches the legacy source lane for lane.
    const double v_module = v_array / modulesSeries_;
    const double v_cell = v_module / cellsSeries_;
    const double i =
        std::max(0.0, cellCurrentAt(v_cell)) * stringsParallel_;
    return i * modulesParallel_;
}

bool
PreparedArray::solveStableBranch(double p_array_w, double &v_array,
                                 double &i_array) const
{
    SC_ASSERT(prepared_, "PreparedArray: no environment set");
    const PreparedEnvironment &s = state_;
    if (s.dark || p_array_w > s.mpp.power)
        return false;

    if (rs_ <= 0.0) {
        // Rs = 0: Newton on f(v) = v I(v) - p over [Vmpp, Voc] with
        // the exact expm1 formulas, bisecting when a step degenerates
        // or escapes the bracket. f is monotone decreasing here with
        // f(Vmpp) >= 0 >= f(Voc), so the bracket never empties.
        double lo = s.mpp.voltage;
        double hi = s.vocArray;
        double v = 0.5 * (lo + hi);
        const double slope_scale = iScale_ / vScale_;
        for (int it = 0; it < 60; ++it) {
            const double v_cell = v / modulesSeries_ / cellsSeries_;
            const double i_cell = s.iph - s.i0 * std::expm1(v_cell / s.vt);
            const double di_cell = -s.i0 / s.vt * std::exp(v_cell / s.vt);
            const double i = std::max(0.0, i_cell) * stringsParallel_ *
                modulesParallel_;
            const double f = v * i - p_array_w;
            if (f > 0.0)
                lo = v;
            else
                hi = v;
            const double df = i + v * di_cell * slope_scale;
            double next = df != 0.0 ? v - f / df : 0.5 * (lo + hi);
            if (std::abs(next - v) <= 1e-13 * (1.0 + std::abs(v))) {
                v = next;
                break;
            }
            if (next <= lo || next >= hi)
                next = 0.5 * (lo + hi);
            v = next;
        }
        v_array = v;
        i_array = currentAt(v);
        return true;
    }

    // Rs > 0: Newton on F(w) = V(w) I(w) - p over [wMpp, wVoc],
    // parametrized by the Lambert variable so each iteration costs one
    // log instead of a full W0exp re-solve:
    //
    //   V(w) = S_v Vt (w + log w - logC)      S_v = cells x modules
    //   I(w) = S_i (A - (Vt/Rs) w)            S_i = strings x modules
    //   F'(w) = S_v Vt (1 + 1/w) I - V S_i Vt / Rs
    //
    // F is monotone decreasing on the branch (V rises, I falls), so the
    // bracket logic is unchanged. Controllers re-pin nearly identical
    // demands thousands of times between environment changes, so the
    // previous root -- while it still lies inside the fresh bracket --
    // beats the midpoint seed by several iterations.
    double lo = s.wMpp;
    double hi = s.wVoc;
    double w = (warmW_ > lo && warmW_ < hi) ? warmW_ : 0.5 * (lo + hi);
    const double slope = s.vt / rs_;
    for (int it = 0; it < 60; ++it) {
        const double y = w + std::log(w);
        const double v = vScale_ * s.vt * (y - s.logC);
        const double i_cell = s.a - slope * w;
        const double i =
            std::max(0.0, i_cell) * stringsParallel_ * modulesParallel_;
        const double f = v * i - p_array_w;

        if (f > 0.0)
            lo = w;
        else
            hi = w;

        const double df =
            vScale_ * s.vt * (1.0 + 1.0 / w) * i - v * iScale_ * slope;

        double next = df != 0.0 ? w - f / df : 0.5 * (lo + hi);
        if (std::abs(next - w) <= 1e-13 * (1.0 + std::abs(w))) {
            w = next;
            break;
        }
        if (next <= lo || next >= hi)
            next = 0.5 * (lo + hi);
        w = next;
    }
    warmW_ = w;
    v_array = vScale_ * s.vt * (w + std::log(w) - s.logC);
    i_array = std::max(0.0, s.a - slope * w) * stringsParallel_ *
        modulesParallel_;
    return true;
}

} // namespace solarcore::pv
