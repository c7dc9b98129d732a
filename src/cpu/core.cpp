#include "core.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace solarcore::cpu {

Core::Core(int id, const DvfsTable &table, const PerfModel &perf,
           const PowerModel &power, BenchmarkProfile profile,
           std::uint64_t seed)
    : id_(id), table_(&table), powerModel_(&power),
      profile_(std::move(profile)), level_(table.maxLevel())
{
    SC_ASSERT(!profile_.phases.empty(), "Core: benchmark has no phases");

    // The model table: everything but leakage, per (phase, level).
    model_.reserve(profile_.phases.size() *
                   static_cast<std::size_t>(table.numLevels()));
    for (const auto &ph : profile_.phases) {
        for (int l = table.minLevel(); l <= table.maxLevel(); ++l) {
            const double f = table.frequency(l);
            const PerfEstimate est = perf.evaluate(ph, f);
            model_.push_back(
                {est.ipc, est.throughput(f),
                 power.evaluate(ph, est, table.voltage(l), f).dynamicW});
        }
    }

    // Jitter phase durations +-20% and start at a random point of the
    // playback so co-scheduled copies of one program decorrelate.
    Rng rng(seed);
    Rng jitter = rng.fork(static_cast<std::uint64_t>(id) + 17);
    phaseDur_.reserve(profile_.phases.size());
    double total = 0.0;
    for (const auto &ph : profile_.phases) {
        const double d = ph.durationSec * jitter.uniform(0.8, 1.2);
        phaseDur_.push_back(d);
        total += d;
    }
    double offset = jitter.uniform(0.0, total);
    while (offset > phaseDur_[phaseIndex_]) {
        offset -= phaseDur_[phaseIndex_];
        phaseIndex_ = (phaseIndex_ + 1) % phaseDur_.size();
    }
    phaseElapsed_ = offset;
}

void
Core::setLevel(int level)
{
    SC_ASSERT(level >= table_->minLevel() && level <= table_->maxLevel(),
              "Core::setLevel: level out of range: ", level);
    if (level != level_)
        ++dvfsTransitions_;
    level_ = level;
}

const PhaseProfile &
Core::currentPhase() const
{
    return profile_.phases[phaseIndex_];
}

void
Core::step(double seconds)
{
    SC_ASSERT(seconds >= 0.0, "Core::step: negative time");
    double remaining = seconds;
    while (remaining > 0.0) {
        const double in_phase =
            std::min(remaining, phaseDur_[phaseIndex_] - phaseElapsed_);
        instructions_ += throughput() * in_phase; // 0 while gated
        energy_ += powerW() * in_phase;
        phaseElapsed_ += in_phase;
        remaining -= in_phase;
        if (phaseElapsed_ >= phaseDur_[phaseIndex_] - 1e-12) {
            phaseElapsed_ = 0.0;
            phaseIndex_ = (phaseIndex_ + 1) % phaseDur_.size();
        }
    }
}

void
Core::swapWorkloads(Core &a, Core &b)
{
    std::swap(a.profile_, b.profile_);
    std::swap(a.model_, b.model_);
    std::swap(a.phaseDur_, b.phaseDur_);
    std::swap(a.phaseIndex_, b.phaseIndex_);
    std::swap(a.phaseElapsed_, b.phaseElapsed_);
}

} // namespace solarcore::cpu
