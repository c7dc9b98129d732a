#include "module.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace solarcore::pv {

PvModule::PvModule(const SolarCell &cell, int cells_series,
                   int strings_parallel, double noct_c)
    : cell_(cell), cellsSeries_(cells_series),
      stringsParallel_(strings_parallel), noctC_(noct_c)
{
    SC_ASSERT(cells_series > 0 && strings_parallel > 0,
              "PvModule: arrangement must be positive");
}

double
PvModule::currentAt(double v, const Environment &env) const
{
    const double v_cell = v / cellsSeries_;
    const double i_cell = cell_.currentAt(v_cell, env);
    // A blocking diode prevents the module from sinking current when
    // driven past its open-circuit voltage.
    return std::max(0.0, i_cell) * stringsParallel_;
}

double
PvModule::openCircuitVoltage(const Environment &env) const
{
    return cell_.openCircuitVoltage(env) * cellsSeries_;
}

double
PvModule::shortCircuitCurrent(const Environment &env) const
{
    return std::max(0.0, cell_.shortCircuitCurrent(env)) * stringsParallel_;
}

double
PvModule::cellTempFromAmbient(double ambient_c, double irradiance) const
{
    return ambient_c + (noctC_ - 20.0) / 800.0 * std::max(0.0, irradiance);
}

PvArray::PvArray(const PvModule &module, int modules_series,
                 int modules_parallel, const Environment &env)
    : module_(module), modulesSeries_(modules_series),
      modulesParallel_(modules_parallel), env_(env)
{
    SC_ASSERT(modules_series > 0 && modules_parallel > 0,
              "PvArray: arrangement must be positive");
}

double
PvArray::currentAt(double v) const
{
    const double v_module = v / modulesSeries_;
    return module_.currentAt(v_module, env_) * modulesParallel_;
}

double
PvArray::openCircuitVoltage() const
{
    return module_.openCircuitVoltage(env_) * modulesSeries_;
}

double
PvArray::shortCircuitCurrent() const
{
    return module_.shortCircuitCurrent(env_) * modulesParallel_;
}

CurveGap
PvArray::curveGapAt(double v, double i) const
{
    const SolarCell &cell = module_.cell();
    const double strings =
        static_cast<double>(module_.stringsParallel()) * modulesParallel_;
    const double v_cell = v / modulesSeries_ / module_.cellsSeries();
    const double i_cell = i / strings;
    const double iph =
        env_.irradiance > 0.0 ? cell.photoCurrent(env_) : 0.0;
    const double i0 = cell.saturationCurrent(env_.cellTempC);
    const double vt = cell.thermalVoltage(env_.cellTempC);
    const double rs = cell.params().seriesRes;
    // One exp serves both terms: e - 1 stands in for expm1, whose
    // extra precision, scaled by I0, is far below the residual's own
    // rounding.
    const double e = std::exp((v_cell + i_cell * rs) / vt);
    const double r = iph - i0 * (e - 1.0) - i_cell;
    const double g = i0 * rs / vt * e;
    const double curve = std::max(0.0, i_cell + r / (1.0 + g));
    return {(curve - i_cell) * strings, iph * strings};
}

} // namespace solarcore::pv
