#include "unit_cache.hpp"

#include <filesystem>
#include <fstream>

#include "obs/json.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace solarcore::campaign {

namespace fs = std::filesystem;

namespace {

constexpr const char *kEntryMagic = "# solarcore-unit-cache-v1";

const MetricField (&kFields)[kNumMetricFields] = metricFields();

std::string
hashHex(const std::string &text)
{
    return util::fnv1aHex(text);
}

std::int64_t
mtimeTicks(const fs::path &p)
{
    std::error_code ec;
    const auto t = fs::last_write_time(p, ec);
    return ec ? 0 : t.time_since_epoch().count();
}

} // namespace

UnitResultCache::UnitResultCache(std::string dir, std::size_t cap_entries,
                                 std::string salt)
    : dir_(std::move(dir)), cap_(cap_entries), salt_(std::move(salt))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_, ec)) {
        SC_WARN("unit-cache: cannot create directory '", dir_, "'");
        return;
    }
    // Build the recency index from the on-disk state; the logical
    // clock continues past the newest mtime so this process's touches
    // always order after anything pre-existing.
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".unit")
            continue;
        const std::int64_t age = mtimeTicks(entry.path());
        const std::string stem = entry.path().stem().string();
        entries_[stem] = age;
        byAge_.emplace(age, stem);
        clock_ = std::max(clock_, age);
    }
    if (ec) {
        SC_WARN("unit-cache: cannot scan directory '", dir_, "'");
        return;
    }
    ok_ = true;
}

std::string
UnitResultCache::keyMaterial(const ScenarioGrid &grid,
                             const ScenarioUnit &unit) const
{
    // The unit-relevant closure only: axes of THIS unit plus the
    // shared knobs and resolved kernel -- never the grid's axis lists,
    // so overlapping grids share entries (see file header). The
    // metric schema is folded in by name so a schema change
    // invalidates rather than misreads.
    std::string m = "unit-v";
    m += std::to_string(kUnitCacheCodeVersion);
    m += " site=";
    m += solar::siteName(unit.site);
    m += " month=";
    m += solar::monthName(unit.month);
    m += " policy=";
    m += campaignPolicyToken(unit.policy);
    m += " workload=";
    m += workload::workloadName(unit.workload);
    m += " seed=";
    m += std::to_string(unit.seed);
    m += " dt=";
    m += obs::jsonNumber(grid.dtSeconds);
    m += " budget=";
    m += obs::jsonNumber(grid.fixedBudgetW);
    m += " derating=";
    m += obs::jsonNumber(grid.batteryDerating);
    m += " period=";
    m += obs::jsonNumber(grid.trackingPeriodMinutes);
    m += " pvkernel=";
    m += grid.pvKernel;
    m += " schema=";
    for (const auto &field : kFields) {
        m += field.name;
        m += ';';
    }
    m += " salt=";
    m += salt_;
    return m;
}

std::string
UnitResultCache::keyHash(const ScenarioGrid &grid,
                         const ScenarioUnit &unit) const
{
    return hashHex(keyMaterial(grid, unit));
}

std::string
UnitResultCache::entryPath(const std::string &hash) const
{
    return (fs::path(dir_) / (hash + ".unit")).string();
}

bool
UnitResultCache::lookup(const ScenarioGrid &grid, const ScenarioUnit &unit,
                        UnitMetrics &out)
{
    if (!ok_) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.misses;
        return false;
    }
    const std::string material = keyMaterial(grid, unit);
    const std::string hash = hashHex(material);
    const std::string path = entryPath(hash);

    bool hit = false;
    {
        std::ifstream in(path);
        std::string line;
        if (in && std::getline(in, line) && line == kEntryMagic &&
            std::getline(in, line) && line == material) {
            UnitMetrics m;
            bool good = true;
            for (const auto &field : kFields)
                good = good && static_cast<bool>(in >> m.*(field.member));
            if (good) {
                out = m;
                hit = true;
            }
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (!hit) {
        ++counters_.misses;
        return false;
    }
    ++counters_.hits;
    // Refresh recency: logical clock for this process, file mtime for
    // the next one.
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
        const auto range = byAge_.equal_range(it->second);
        for (auto r = range.first; r != range.second; ++r) {
            if (r->second == hash) {
                byAge_.erase(r);
                break;
            }
        }
        it->second = ++clock_;
        byAge_.emplace(it->second, hash);
    }
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return true;
}

void
UnitResultCache::store(const ScenarioGrid &grid, const ScenarioUnit &unit,
                       const UnitMetrics &metrics)
{
    if (!ok_)
        return;
    const std::string material = keyMaterial(grid, unit);
    const std::string hash = hashHex(material);
    const std::string path = entryPath(hash);

    // Atomic publication: a reader sees the old entry, the new entry,
    // or a miss -- never a torn file.
    std::string text = kEntryMagic;
    text += '\n';
    text += material;
    text += '\n';
    for (std::size_t i = 0; i < kNumMetricFields; ++i) {
        if (i)
            text += ' ';
        text += obs::jsonNumber(metrics.*(kFields[i].member));
    }
    text += '\n';
    if (std::string error; !util::writeFileAtomically(path, text, error)) {
        SC_WARN_ONCE("unit-cache: ", error);
        return;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.stores;
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
        const auto range = byAge_.equal_range(it->second);
        for (auto r = range.first; r != range.second; ++r) {
            if (r->second == hash) {
                byAge_.erase(r);
                break;
            }
        }
        it->second = ++clock_;
        byAge_.emplace(it->second, hash);
    } else {
        entries_[hash] = ++clock_;
        byAge_.emplace(clock_, hash);
    }
    evictLocked();
}

void
UnitResultCache::evictLocked()
{
    if (cap_ == 0)
        return;
    while (entries_.size() > cap_ && !byAge_.empty()) {
        const auto oldest = byAge_.begin();
        const std::string hash = oldest->second;
        byAge_.erase(oldest);
        entries_.erase(hash);
        std::error_code ec;
        fs::remove(entryPath(hash), ec);
        ++counters_.evictions;
    }
}

std::size_t
UnitResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

UnitCacheCounters
UnitResultCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace solarcore::campaign
