#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <string_view>

#include "util/parse_number.hpp"
#include "util/thread_pool.hpp"

namespace solarcore::bench {

const pv::PvModule &
standardModule()
{
    static const pv::PvModule module = pv::buildBp3180n();
    return module;
}

const solar::SolarTrace &
standardTrace(solar::SiteId site, solar::Month month)
{
    // Guarded: the parallel sweeps fault traces in from worker
    // threads. Entries are node-stable, so returned references stay
    // valid across later insertions.
    static std::mutex mutex;
    static std::map<std::pair<int, int>, solar::SolarTrace> cache;
    std::lock_guard<std::mutex> lock(mutex);
    const auto key = std::make_pair(static_cast<int>(site),
                                    static_cast<int>(month));
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key,
                          solar::generateDayTrace(site, month, kBenchSeed))
                 .first;
    }
    return it->second;
}

core::DayResult
runDay(solar::SiteId site, solar::Month month, workload::WorkloadId wl,
       core::PolicyKind policy, double fixed_budget_w, bool timeline,
       double dt_seconds, obs::Recorders *recorders)
{
    core::SimConfig cfg;
    cfg.policy = policy;
    cfg.fixedBudgetW = fixed_budget_w;
    cfg.dtSeconds = dt_seconds;
    cfg.recordTimeline = timeline;
    cfg.seed = kBenchSeed;
    cfg.recorders = recorders;
    return core::simulateDay(standardModule(), standardTrace(site, month),
                             wl, cfg);
}

int
threadsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg.rfind("--threads=", 0) != 0)
            continue;
        const auto threads = util::parseNumber<int>(arg.substr(10));
        if (threads && *threads <= ThreadPool::maxThreads())
            return *threads; // 0: ThreadPool's auto-detect
        std::cerr << argv[0] << ": bad value for --threads\n"
                  << "usage: " << argv[0]
                  << " [--threads=N] (N: 0 = all hardware threads, at most "
                  << ThreadPool::maxThreads() << ")\n";
        std::exit(2);
    }
    return 0;
}

core::BatteryDayResult
runBatteryDay(solar::SiteId site, solar::Month month,
              workload::WorkloadId wl, double derating_factor,
              double dt_seconds)
{
    core::SimConfig cfg;
    cfg.dtSeconds = dt_seconds;
    cfg.seed = kBenchSeed;
    return core::simulateBatteryDay(standardModule(),
                                    standardTrace(site, month), wl,
                                    derating_factor, cfg);
}

std::string
siteMonthLabel(solar::SiteId site, solar::Month month)
{
    return std::string(solar::siteName(site)) + "-" +
        solar::monthName(month);
}

} // namespace solarcore::bench
