/**
 * @file
 * Persistent on-disk cache of golden-compared unit results.
 *
 * A scenario unit's metrics are a pure function of (unit axes, the
 * grid's shared simulation knobs, the resolved PV kernel, the audit
 * mode, the metric schema, the simulation code version). The cache
 * keys on exactly that closure -- deliberately NOT on the full grid
 * signature, which also names the axis *lists*: two overlapping grids
 * (say fig13 and a superset sweep) share every unit they have in
 * common, so a warm cache accelerates re-runs, --resume, and
 * overlapping grids alike.
 *
 * Layout: one small text file per entry under the cache directory,
 * named by the FNV-1a hash of the key material. The file stores the
 * key material in clear (a hash collision reads as a miss, never as a
 * wrong result) and the metrics with shortest-round-trip formatting,
 * so a cache hit reproduces the simulated bytes exactly. Eviction is
 * LRU by file mtime with a configurable entry cap; lookups touch the
 * file to refresh recency. Thread-safe; cross-process safety comes
 * from writes going through a rename (a torn entry is impossible,
 * concurrent writers of the same key store identical bytes).
 */

#ifndef SOLARCORE_CAMPAIGN_UNIT_CACHE_HPP
#define SOLARCORE_CAMPAIGN_UNIT_CACHE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "campaign/scenario.hpp"
#include "campaign/unit_metrics.hpp"

namespace solarcore::campaign {

/**
 * Bumped when a change to the simulation (not the schema -- that is
 * hashed separately) alters unit results; stale entries then miss
 * instead of resurrecting old numbers.
 */
inline constexpr int kUnitCacheCodeVersion = 2;

/** Monotonic counters of one cache handle's activity. */
struct UnitCacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
};

/** On-disk LRU of per-unit metrics (see file header). */
class UnitResultCache
{
  public:
    /**
     * Open (creating @p dir if needed) with an LRU cap of
     * @p cap_entries files (0 = unlimited). @p salt folds run-level
     * knobs that live outside the grid into every key -- the campaign
     * passes the audit mode, which changes the auditViolations metric.
     */
    UnitResultCache(std::string dir, std::size_t cap_entries,
                    std::string salt);

    /** False when the directory could not be created/scanned. */
    bool ok() const { return ok_; }

    /** The clear-text key material of @p unit under @p grid. */
    std::string keyMaterial(const ScenarioGrid &grid,
                            const ScenarioUnit &unit) const;

    /** Hex FNV-1a of keyMaterial (the entry's file stem). */
    std::string keyHash(const ScenarioGrid &grid,
                        const ScenarioUnit &unit) const;

    /**
     * Look @p unit up; on a hit fills @p out, refreshes the entry's
     * recency and counts a hit, else counts a miss.
     */
    bool lookup(const ScenarioGrid &grid, const ScenarioUnit &unit,
                UnitMetrics &out);

    /** Store @p metrics for @p unit, evicting LRU entries past cap. */
    void store(const ScenarioGrid &grid, const ScenarioUnit &unit,
               const UnitMetrics &metrics);

    /** Entries currently indexed (post-eviction). */
    std::size_t size() const;

    UnitCacheCounters counters() const;

  private:
    std::string entryPath(const std::string &hash) const;
    void evictLocked();

    std::string dir_;
    std::size_t cap_;
    std::string salt_;
    bool ok_ = false;

    mutable std::mutex mutex_;
    UnitCacheCounters counters_;
    // Recency index: mtime-ordered multimap + per-entry reverse lookup.
    std::multimap<std::int64_t, std::string> byAge_;
    std::map<std::string, std::int64_t> entries_;
    std::int64_t clock_ = 0; //!< monotonic recency tiebreaker
};

} // namespace solarcore::campaign

#endif // SOLARCORE_CAMPAIGN_UNIT_CACHE_HPP
