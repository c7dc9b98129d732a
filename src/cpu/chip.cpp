#include "chip.hpp"

#include "util/logging.hpp"

namespace solarcore::cpu {

ChipConfig
defaultChipConfig()
{
    return ChipConfig{};
}

MultiCoreChip::MultiCoreChip(const ChipConfig &config, const DvfsTable &table,
                             const EnergyParams &energy,
                             std::vector<BenchmarkProfile> workload,
                             std::uint64_t seed)
    : config_(config), table_(table), powerModel_(energy)
{
    SC_ASSERT(static_cast<int>(workload.size()) == config.numCores,
              "MultiCoreChip: workload size ", workload.size(),
              " != core count ", config.numCores);
    // The interval model only fills the cores' model tables.
    const PerfModel perf(config.core);
    cores_.reserve(workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        cores_.emplace_back(static_cast<int>(i), table_, perf,
                            powerModel_, std::move(workload[i]),
                            seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    }
}

Core &
MultiCoreChip::core(int i)
{
    SC_ASSERT(i >= 0 && i < numCores(), "MultiCoreChip: bad core ", i);
    return cores_[static_cast<std::size_t>(i)];
}

const Core &
MultiCoreChip::core(int i) const
{
    SC_ASSERT(i >= 0 && i < numCores(), "MultiCoreChip: bad core ", i);
    return cores_[static_cast<std::size_t>(i)];
}

double
MultiCoreChip::totalPower() const
{
    double w = 0.0;
    for (const auto &c : cores_)
        w += c.powerW();
    return w;
}

void
MultiCoreChip::setVrmModel(const VrmParams &params)
{
    vrmModel_.emplace(params);
}

void
MultiCoreChip::clearVrmModel()
{
    vrmModel_.reset();
}

double
MultiCoreChip::inputPower() const
{
    if (!vrmModel_)
        return totalPower();
    double w = 0.0;
    for (const auto &c : cores_)
        w += vrmModel_->inputPower(c.powerW());
    return w;
}

double
MultiCoreChip::totalThroughput() const
{
    double t = 0.0;
    for (const auto &c : cores_)
        t += c.throughput();
    return t;
}

void
MultiCoreChip::step(double seconds)
{
    for (auto &c : cores_)
        c.step(seconds);
}

double
MultiCoreChip::totalInstructions() const
{
    double n = 0.0;
    for (const auto &c : cores_)
        n += c.instructionsRetired();
    return n;
}

double
MultiCoreChip::totalEnergy() const
{
    double j = 0.0;
    for (const auto &c : cores_)
        j += c.energyJoules();
    return j;
}

std::uint64_t
MultiCoreChip::totalDvfsTransitions() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c.dvfsTransitions();
    return n;
}

std::uint64_t
MultiCoreChip::totalGateTransitions() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c.gateTransitions();
    return n;
}

std::vector<MultiCoreChip::CoreSetting>
MultiCoreChip::settings() const
{
    std::vector<CoreSetting> out;
    out.reserve(cores_.size());
    for (const auto &c : cores_)
        out.push_back({c.level(), c.gated()});
    return out;
}

void
MultiCoreChip::applySettings(const std::vector<CoreSetting> &settings)
{
    SC_ASSERT(settings.size() == cores_.size(),
              "applySettings: size mismatch");
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i].setLevel(settings[i].level);
        cores_[i].setGated(settings[i].gated);
    }
}

void
MultiCoreChip::setAllLevels(int level)
{
    for (auto &c : cores_) {
        c.setGated(false);
        c.setLevel(level);
    }
}

void
MultiCoreChip::gateAll()
{
    for (auto &c : cores_)
        c.setGated(true);
}

void
MultiCoreChip::swapWorkloads(int i, int j)
{
    SC_ASSERT(i >= 0 && i < numCores() && j >= 0 && j < numCores(),
              "swapWorkloads: bad core index");
    if (i != j)
        Core::swapWorkloads(cores_[static_cast<std::size_t>(i)],
                            cores_[static_cast<std::size_t>(j)]);
}

double
MultiCoreChip::minUngatedPower() const
{
    double w = 0.0;
    for (const auto &c : cores_)
        w += c.powerAtLevel(table_.minLevel());
    return w;
}

double
MultiCoreChip::maxPower() const
{
    double w = 0.0;
    for (const auto &c : cores_)
        w += c.powerAtLevel(table_.maxLevel());
    return w;
}

} // namespace solarcore::cpu
