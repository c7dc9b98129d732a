#include "dvfs.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hpp"

namespace solarcore::cpu {

DvfsTable
DvfsTable::paperDefault()
{
    // Table 4: 2.5/2.2/1.9/1.6/1.3/1.0 GHz at 1.45/1.35/1.25/1.15/1.05/
    // 0.95 V, listed here ascending.
    std::vector<DvfsPoint> pts = {
        {1.0e9, 0.95}, {1.3e9, 1.05}, {1.6e9, 1.15},
        {1.9e9, 1.25}, {2.2e9, 1.35}, {2.5e9, 1.45},
    };
    return DvfsTable(std::move(pts));
}

DvfsTable
DvfsTable::interpolated(int levels)
{
    SC_ASSERT(levels >= 2, "DvfsTable::interpolated: need >= 2 levels");
    std::vector<DvfsPoint> pts;
    pts.reserve(static_cast<std::size_t>(levels));
    for (int i = 0; i < levels; ++i) {
        const double t = static_cast<double>(i) / (levels - 1);
        pts.push_back({1.0e9 + t * 1.5e9, 0.95 + t * 0.50});
    }
    return DvfsTable(std::move(pts));
}

DvfsTable::DvfsTable(std::vector<DvfsPoint> points)
    : points_(std::move(points))
{
    SC_ASSERT(!points_.empty(), "DvfsTable: empty table");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        SC_ASSERT(points_[i].frequencyHz > points_[i - 1].frequencyHz,
                  "DvfsTable: frequencies must ascend");
        SC_ASSERT(points_[i].voltage >= points_[i - 1].voltage,
                  "DvfsTable: voltages must be non-decreasing");
    }
}

void
DvfsTable::levelOutOfRange(int level)
{
    SC_PANIC("DvfsTable: level out of range: ", level);
    std::abort(); // SC_PANIC does not return
}

double
DvfsTable::maxVoltage() const
{
    return points_.back().voltage;
}

std::uint8_t
DvfsTable::vid(int level) const
{
    // Intel 6-bit VID: codes step 25 mV from 0.8375 V.
    const double v = voltage(level);
    const double code = std::round((v - 0.8375) / 0.025);
    return static_cast<std::uint8_t>(code < 0 ? 0 : (code > 63 ? 63 : code));
}

int
DvfsTable::levelFromVid(std::uint8_t vid_code) const
{
    const double v = 0.8375 + 0.025 * vid_code;
    int best = 0;
    double best_err = 1e9;
    for (int l = 0; l < numLevels(); ++l) {
        const double err = std::abs(voltage(l) - v);
        if (err < best_err) {
            best_err = err;
            best = l;
        }
    }
    return best;
}

std::string
DvfsTable::describe() const
{
    auto point_label = [&](int level) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fGHz@%.2fV",
                      frequency(level) / 1e9, voltage(level));
        return std::string(buf);
    };
    return std::to_string(numLevels()) + " levels: " +
        point_label(minLevel()) + " .. " + point_label(maxLevel());
}

} // namespace solarcore::cpu
