/**
 * @file
 * Hierarchical statistics registry in the gem5 spirit.
 *
 * Components register named stats -- scalars, per-lane vectors,
 * fixed-bin histograms, and formulas evaluated at dump time -- under
 * dotted hierarchical names ("chip.core3.dvfsTransitions",
 * "sim.solarUtilization"). Registration is find-or-create, so repeated
 * runs (a sweep replaying many days into one registry) accumulate into
 * the same counters. The hot path is a plain double increment on a
 * reference obtained once; the registry itself is only walked at
 * dump/snapshot/reset time. Not thread-safe: parallel sweeps give each
 * worker its own registry and merge() them in task-index order, which
 * keeps every dump byte-identical at any thread count.
 */

#ifndef SOLARCORE_OBS_STATS_REGISTRY_HPP
#define SOLARCORE_OBS_STATS_REGISTRY_HPP

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace solarcore::obs {

class StatsRegistry;

/** Common base: name, description, reset and dump hooks. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Zero the stat (formulas are stateless and ignore this). */
    virtual void reset() = 0;

    /** JSON fragment for the value (no key). */
    virtual std::string jsonValue(const StatsRegistry &reg) const = 0;

    /**
     * Flattened (name, value) rows for CSV dumps and snapshots --
     * vectors expand to name.0..name.N-1, histograms to per-bin rows.
     */
    virtual void flatten(const StatsRegistry &reg,
                         std::vector<std::pair<std::string, double>> &out)
        const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A scalar counter/value. Increment is a plain double add. */
class ScalarStat : public StatBase
{
  public:
    using StatBase::StatBase;

    ScalarStat &operator+=(double d) { value_ += d; return *this; }
    ScalarStat &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void reset() override { value_ = 0.0; }
    std::string jsonValue(const StatsRegistry &) const override;
    void flatten(const StatsRegistry &,
                 std::vector<std::pair<std::string, double>> &out)
        const override;

  private:
    double value_ = 0.0;
};

/** A fixed-lane vector of scalars (e.g. one lane per core). */
class VectorStat : public StatBase
{
  public:
    VectorStat(std::string name, std::string desc, std::size_t lanes)
        : StatBase(std::move(name), std::move(desc)), lanes_(lanes, 0.0)
    {}

    double &lane(std::size_t i) { return lanes_.at(i); }
    double lane(std::size_t i) const { return lanes_.at(i); }
    std::size_t lanes() const { return lanes_.size(); }
    double total() const;

    /** Grow to @p lanes (merging registries with different widths). */
    void ensureLanes(std::size_t lanes);

    void reset() override;
    std::string jsonValue(const StatsRegistry &) const override;
    void flatten(const StatsRegistry &,
                 std::vector<std::pair<std::string, double>> &out)
        const override;

  private:
    std::vector<double> lanes_;
};

/** Fixed-width histogram over [lo, hi); out-of-range samples clamp. */
class HistogramStat : public StatBase
{
  public:
    HistogramStat(std::string name, std::string desc, double lo, double hi,
                  std::size_t bins);

    void add(double x);
    /** Bulk-add @p n samples to bin @p i (registry merges). */
    void addBinCount(std::size_t i, std::uint64_t n);
    /** Fold another histogram's value sum in (registry merges). */
    void addSum(double sum) { sum_ += sum; }
    std::size_t bin(std::size_t i) const { return counts_.at(i); }
    std::size_t bins() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }
    /** Sum of all observed sample values (OpenMetrics `_sum`). */
    double sum() const { return sum_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double binLow(std::size_t i) const;

    void reset() override;
    std::string jsonValue(const StatsRegistry &) const override;
    void flatten(const StatsRegistry &,
                 std::vector<std::pair<std::string, double>> &out)
        const override;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A derived stat evaluated at dump time against the owning registry,
 * referencing operands by name ("hits" / ("hits"+"misses")). Because
 * operands are looked up rather than captured, formulas survive
 * registry merges unchanged.
 */
class FormulaStat : public StatBase
{
  public:
    using Fn = std::function<double(const StatsRegistry &)>;

    FormulaStat(std::string name, std::string desc, Fn fn)
        : StatBase(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value(const StatsRegistry &reg) const { return fn_(reg); }
    const Fn &fn() const { return fn_; }

    void reset() override {}
    std::string jsonValue(const StatsRegistry &reg) const override;
    void flatten(const StatsRegistry &reg,
                 std::vector<std::pair<std::string, double>> &out)
        const override;

  private:
    Fn fn_;
};

/** The registry: an ordered map of dotted names to stats. */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /**
     * Find-or-create accessors. Finding an existing stat of another
     * type under the same name is a caller bug and panics.
     */
    ScalarStat &scalar(const std::string &name,
                       const std::string &desc = "");
    VectorStat &vector(const std::string &name, std::size_t lanes,
                       const std::string &desc = "");
    HistogramStat &histogram(const std::string &name, double lo, double hi,
                             std::size_t bins,
                             const std::string &desc = "");
    FormulaStat &formula(const std::string &name, FormulaStat::Fn fn,
                         const std::string &desc = "");

    /** The stat registered under @p name, or nullptr. */
    const StatBase *find(std::string_view name) const;

    /**
     * Scalar value of @p name: scalar value, vector total, histogram
     * sample count, or formula evaluation; 0 if absent. The formula
     * operand accessor.
     */
    double value(std::string_view name) const;

    std::size_t size() const { return stats_.size(); }

    /** Visit every stat in name order (exporters). */
    void forEach(const std::function<void(const StatBase &)> &fn) const;

    /** Zero every resettable stat (tracking-period epochs). */
    void resetAll();

    /** Flattened (name, value) rows in name order. */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /**
     * Fold @p other into this registry: same-name scalar/vector/
     * histogram stats add, missing stats are created, formulas are
     * copied once (they recompute against the merged operands).
     */
    void merge(const StatsRegistry &other);

    /** One JSON object {"name": value, ...} in name order. */
    void dumpJson(std::ostream &os) const;

    /** `name,value` CSV rows (flattened) with a header line. */
    void dumpCsv(std::ostream &os) const;

  private:
    template <typename T, typename... Args>
    T &findOrCreate(const std::string &name, const std::string &desc,
                    Args &&...args);

    std::map<std::string, std::unique_ptr<StatBase>, std::less<>> stats_;
};

/**
 * Hierarchical naming helper: a (registry, dotted-prefix) pair whose
 * accessors prepend the prefix, so a component can register
 * "chip.core3.dvfsTransitions" as scope.sub("core3").scalar(...).
 */
class StatScope
{
  public:
    explicit StatScope(StatsRegistry &reg, std::string prefix = "")
        : reg_(&reg), prefix_(std::move(prefix))
    {}

    /** A child scope named prefix.name. */
    StatScope sub(const std::string &name) const;

    const std::string &prefix() const { return prefix_; }
    StatsRegistry &registry() const { return *reg_; }

    ScalarStat &
    scalar(const std::string &name, const std::string &desc = "") const
    {
        return reg_->scalar(qualify(name), desc);
    }

    VectorStat &
    vector(const std::string &name, std::size_t lanes,
           const std::string &desc = "") const
    {
        return reg_->vector(qualify(name), lanes, desc);
    }

    HistogramStat &
    histogram(const std::string &name, double lo, double hi,
              std::size_t bins, const std::string &desc = "") const
    {
        return reg_->histogram(qualify(name), lo, hi, bins, desc);
    }

    FormulaStat &
    formula(const std::string &name, FormulaStat::Fn fn,
            const std::string &desc = "") const
    {
        return reg_->formula(qualify(name), std::move(fn), desc);
    }

    /** prefix.name (or name at the root). */
    std::string qualify(const std::string &name) const;

  private:
    StatsRegistry *reg_;
    std::string prefix_;
};

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_STATS_REGISTRY_HPP
