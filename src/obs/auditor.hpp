/**
 * @file
 * Runtime invariant auditor: physical sanity checks evaluated every
 * simulation step by the day drivers.
 *
 * The auditor itself is deliberately dumb about the physics -- each
 * check takes the already-measured quantities (the caller owns the
 * models) and decides pass/fail under a configurable tolerance:
 *
 *  - BudgetOvershoot    chip draw exceeds the delivered power budget
 *  - RailVoltage        converter output off its nominal set point
 *  - SocRange           battery state of charge outside [0, 1]
 *  - EnergyBalance      battery ledger fails closure over the day
 *  - PanelOperatingPoint solved panel point off the I-V curve
 *  - DvfsLegality       core level outside the table, or a gated core
 *                       while PCPG is disabled
 *
 * Violations are counted per check, the first few are kept with full
 * cause context, an AuditViolation trace event is emitted when a
 * trace sink is attached, and in Strict mode the process aborts with
 * the context in the message (--audit=strict turns a silent physics
 * regression into a red build). foldInto() surfaces the counters as
 * audit.* stats so campaign summaries can report per-unit violation
 * counts.
 */

#ifndef SOLARCORE_OBS_AUDITOR_HPP
#define SOLARCORE_OBS_AUDITOR_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace solarcore::obs {

class StatsRegistry;
class TraceBuffer;

/** The invariant families the auditor evaluates. */
enum class AuditCheck : std::uint8_t {
    BudgetOvershoot,
    RailVoltage,
    SocRange,
    EnergyBalance,
    PanelOperatingPoint,
    DvfsLegality,
};

inline constexpr std::size_t kNumAuditChecks = 6;

/** Stable token of a check ("budgetOvershoot", ...). */
const char *auditCheckName(AuditCheck check);

/** How violations are handled. */
enum class AuditMode : std::uint8_t {
    Off,    //!< auditor not constructed; zero cost
    Count,  //!< count + trace, never abort
    Strict, //!< first violation is fatal
};

/** Parse "off"/"count"/"strict". @return false on junk. */
bool parseAuditMode(const std::string &token, AuditMode &out);

/** Tolerances of the individual checks. */
struct AuditorConfig
{
    AuditMode mode = AuditMode::Count;
    double budgetToleranceFrac = 0.02; //!< relative budget headroom
    double budgetToleranceW = 0.5;     //!< absolute budget headroom [W]
    double railToleranceFrac = 0.05;   //!< rail deviation from nominal
    double socTolerance = 1e-9;        //!< SoC slack outside [0, 1]
    double balanceToleranceFrac = 0.02;//!< energy-closure slack
    double curveToleranceFrac = 0.01;  //!< panel point current slack
    std::size_t maxDetails = 16;       //!< violation contexts retained
};

/** One retained violation context. */
struct AuditViolationRecord
{
    AuditCheck check = AuditCheck::BudgetOvershoot;
    double timeMin = 0.0;   //!< simulated minutes since midnight
    double measured = 0.0;
    double limit = 0.0;
    int core = -1;          //!< core index, -1 when chip-level
    std::string context;    //!< caller-provided cause string
};

/** The per-run (or per-campaign-unit) invariant auditor. */
class Auditor
{
  public:
    explicit Auditor(AuditorConfig config = AuditorConfig());

    const AuditorConfig &config() const { return config_; }

    /** Attach a trace sink (nullptr detaches); violations then emit
     *  AuditViolation events stamped with the sink's simulated time. */
    void setTrace(TraceBuffer *trace) { trace_ = trace; }

    /** Stamp for subsequent violations [simulated minutes]. */
    void setNow(double minute) { nowMin_ = minute; }

    /**
     * Chip draw @p drawn_w against delivered budget @p budget_w [W].
     * @return true when within tolerance
     */
    bool checkBudget(double drawn_w, double budget_w, const char *context);

    /** Rail voltage @p rail_v against its nominal set point. */
    bool checkRailVoltage(double rail_v, double nominal_v,
                          const char *context);

    /** Battery state of charge in [0, 1]. */
    bool checkSocRange(double soc, const char *context);

    /**
     * Battery ledger closure: absorbed == stored + delivered + lost,
     * within tolerance scaled by @p scale_wh (use the absorbed total).
     */
    bool checkEnergyBalance(double absorbed_wh, double stored_wh,
                            double delivered_wh, double lost_wh,
                            const char *context);

    /**
     * Solved panel operating point on the I-V curve: @p solved_a vs.
     * the curve's @p curve_a at the same voltage, relative to
     * @p scale_a. The day loop passes the first-order curve current
     * and the photocurrent from pv::PvArray::curveGapAt, a single-diode
     * residual: one exp per step and no solve of the curve, so the
     * check stays independent of the solver that found the point.
     */
    bool checkPanelPoint(double solved_a, double curve_a, double scale_a,
                         const char *context);

    /** Core DVFS/gating state legality. */
    bool checkDvfsLegality(int core, int level, int min_level,
                           int max_level, bool gated, bool gating_allowed,
                           const char *context);

    std::uint64_t violationCount() const { return totalViolations_; }
    std::uint64_t count(AuditCheck check) const;
    std::uint64_t stepsAudited() const { return stepsAudited_; }

    /** Count one audited simulation step (per-unit normalization). */
    void countStep() { ++stepsAudited_; }

    /** The first maxDetails violation contexts, in emission order. */
    const std::vector<AuditViolationRecord> &details() const
    {
        return details_;
    }

    /** Fold counters into @p reg as audit.* stats. */
    void foldInto(StatsRegistry &reg) const;

    /** Merge another auditor's counters/details (task-index order). */
    void merge(const Auditor &other);

    /** JSON report: mode, per-check counts, retained contexts. */
    void writeJson(std::ostream &os) const;

  private:
    /** Record a violation; aborts in Strict mode. */
    void violation(AuditCheck check, double measured, double limit,
                   int core, const char *context);

    AuditorConfig config_;
    TraceBuffer *trace_ = nullptr;
    double nowMin_ = 0.0;
    std::uint64_t counts_[kNumAuditChecks] = {};
    std::uint64_t totalViolations_ = 0;
    std::uint64_t stepsAudited_ = 0;
    std::vector<AuditViolationRecord> details_;
};

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_AUDITOR_HPP
