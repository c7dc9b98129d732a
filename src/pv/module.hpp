/**
 * @file
 * PV module and array models (paper Section 3).
 *
 * A module is Ns identical cells in series by Np strings in parallel;
 * an array is a series-parallel arrangement of identical modules. Both
 * expose the same terminal I-V interface, consumed by the MPP finder
 * and the power-delivery operating-point solver.
 */

#ifndef SOLARCORE_PV_MODULE_HPP
#define SOLARCORE_PV_MODULE_HPP

#include "pv/cell.hpp"

namespace solarcore::pv {

/** One electrical operating point of a source or load. */
struct OperatingPoint
{
    double voltage = 0.0; //!< terminal voltage [V]
    double current = 0.0; //!< terminal current [A]

    double power() const { return voltage * current; }
};

/**
 * Abstract terminal I-V characteristic of a DC source at a fixed
 * environmental condition. The power network solver only needs this.
 */
class IvSource
{
  public:
    virtual ~IvSource() = default;

    /** Terminal current when the terminal voltage is @p v [A]. */
    virtual double currentAt(double v) const = 0;

    /** Voltage above which the source delivers no current [V]. */
    virtual double openCircuitVoltage() const = 0;
};

/** A PV module: Ns series cells x Np parallel strings. */
class PvModule
{
  public:
    /**
     * @param cell            electrical model of one cell
     * @param cells_series    Ns, cells per series string
     * @param strings_parallel Np, parallel strings
     * @param noct_c          nominal operating cell temperature [C]
     */
    PvModule(const SolarCell &cell, int cells_series, int strings_parallel,
             double noct_c = 47.0);

    const SolarCell &cell() const { return cell_; }
    int cellsSeries() const { return cellsSeries_; }
    int stringsParallel() const { return stringsParallel_; }

    /** Module terminal current at voltage @p v, clamped at 0 reverse. */
    double currentAt(double v, const Environment &env) const;

    /** Module open-circuit voltage [V]. */
    double openCircuitVoltage(const Environment &env) const;

    /** Module short-circuit current [A]. */
    double shortCircuitCurrent(const Environment &env) const;

    /**
     * Cell temperature from ambient temperature and irradiance via the
     * standard NOCT relation: Tc = Ta + (NOCT - 20) / 800 * G.
     */
    double cellTempFromAmbient(double ambient_c, double irradiance) const;

  private:
    SolarCell cell_;
    int cellsSeries_;
    int stringsParallel_;
    double noctC_;
};

/**
 * How far a terminal point lies off an array's I-V curve, to first
 * order, found without solving the curve. At cell level, with the
 * single-diode residual of the point (v, i)
 *
 *   r = Iph - I0 expm1((v + i Rs) / Vt) - i
 *
 * and its slope term g = (I0 Rs / Vt) exp((v + i Rs) / Vt), one Newton
 * step from i reaches the curve current i + r / (1 + g); it is clamped
 * at 0, as the blocking diode clamps PvModule::currentAt.
 */
struct CurveGap
{
    double currentA = 0.0;      //!< curve current minus the point's [A]
    double photoCurrentA = 0.0; //!< array photocurrent: Isc to ~1e-9 [A]
};

/** A PV array: identical modules in series-parallel, as one IvSource. */
class PvArray : public IvSource
{
  public:
    PvArray(const PvModule &module, int modules_series, int modules_parallel,
            const Environment &env);

    /** Rebind the array to a new environmental condition. */
    void setEnvironment(const Environment &env) { env_ = env; }
    const Environment &environment() const { return env_; }

    const PvModule &module() const { return module_; }
    int modulesSeries() const { return modulesSeries_; }
    int modulesParallel() const { return modulesParallel_; }

    double currentAt(double v) const override;
    double openCircuitVoltage() const override;
    double shortCircuitCurrent() const;

    /**
     * The point (@p v [V], @p i [A]) against the curve: one exp and no
     * Lambert-W or Newton solve, so it checks any solver's point, the
     * Newton oracle's included.
     */
    CurveGap curveGapAt(double v, double i) const;

  private:
    PvModule module_;
    int modulesSeries_;
    int modulesParallel_;
    Environment env_;
};

} // namespace solarcore::pv

#endif // SOLARCORE_PV_MODULE_HPP
