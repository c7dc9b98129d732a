/**
 * @file
 * solarcore_cli: command-line front end to the simulation library.
 *
 * Runs one simulated day (or a multi-day aggregate) for any
 * site/month/workload/policy combination and emits either a summary,
 * a per-minute CSV timeline (for plotting), or the weather trace
 * itself.
 *
 *   solarcore_cli summary  --site AZ --month Apr --workload HM2
 *   solarcore_cli timeline --site NC --month Oct --policy rr > day.csv
 *   solarcore_cli trace    --site TN --month Jan --seed 9 > trace.csv
 *   solarcore_cli sweep    --workload L1 --days 5
 *
 * Options: --site AZ|CO|NC|TN   --month Jan|Apr|Jul|Oct
 *          --workload H1..ML2   --policy opt|rr|ic|icm|fixed
 *          --budget <W>         --seed <n>   --days <n>
 *          --dt <seconds>       --threshold <W>
 *          --pv-kernel auto|scalar|avx2 (batch MPP kernel)
 *
 * Observability (see src/obs/): --stats-out=FILE --trace-out=FILE
 * --trace-buffer=N --manifest-out=FILE --telemetry-out=FILE
 * --telemetry-every=N --telemetry-mode=every|minmax --profile-out=FILE
 * --audit=off|count|strict --audit-out=FILE --metrics-out=FILE
 * --metrics-port=N --postmortem-out=FILE. --metrics-out renders the
 * stats registry (and the profiler tree when profiled) as an
 * OpenMetrics exposition at exit; --postmortem-out arms the crash
 * flight recorder, so a fatal signal or strict-audit abort leaves a
 * postmortem.json behind. The trace is Chrome
 * trace_event JSON (Perfetto-loadable) unless FILE ends in .jsonl;
 * when both a trace and telemetry are requested, the waveform channels
 * are woven into the trace as Perfetto counter tracks. The command
 * defaults to "summary" when argv[1] is already a flag, so
 *
 *   solarcore_cli --telemetry-out=t.csv --profile-out=p.json \
 *       --audit=strict
 *
 * runs an audited, instrumented default day.
 */

#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "core/aggregate.hpp"
#include "core/solarcore.hpp"
#include "pv/pv_kernel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics_export.hpp"
#include "obs/recorders.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

using namespace solarcore;

namespace {

struct Options
{
    std::string command = "summary";
    solar::SiteId site = solar::SiteId::AZ;
    solar::Month month = solar::Month::Apr;
    workload::WorkloadId workload = workload::WorkloadId::HM2;
    core::PolicyKind policy = core::PolicyKind::MpptOpt;
    double budgetW = 75.0;
    std::uint64_t seed = 1;
    int days = 5;
    double dtSeconds = 15.0;
    double thresholdW = 25.0;
    pv::PvKernel pvKernel = pv::detectPvKernel();
    obs::ObsOptions obs;
    obs::Recorders *recorders = nullptr; //!< set by main
};

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "solarcore_cli: " << complaint << "\n";
    std::cerr
        << "usage: solarcore_cli <summary|timeline|trace|sweep> "
           "[options]\n"
           "  --site AZ|CO|NC|TN      --month Jan|Apr|Jul|Oct\n"
           "  --workload H1|H2|M1|M2|L1|L2|HM1|HM2|ML1|ML2\n"
           "  --policy opt|rr|ic|icm|fixed  --budget <W> (fixed policy)\n"
           "  --seed <n>  --days <n> (sweep)  --dt <s>  --threshold <W>\n"
           "  --pv-kernel auto|scalar|avx2\n"
           "  --stats-out=FILE (.json|.csv)  --trace-out=FILE (Chrome "
           "JSON, or JSONL for .jsonl)\n"
           "  --trace-buffer=<events>  --manifest-out=FILE\n"
           "  --telemetry-out=FILE.csv  --telemetry-every=<n>  "
           "--telemetry-mode=every|minmax\n"
           "  --profile-out=FILE.json  --audit=off|count|strict  "
           "--audit-out=FILE.json\n"
           "  --metrics-out=FILE  --metrics-port=N  "
           "--postmortem-out=FILE.json\n";
    std::exit(2);
}

/** Parse @p value with util::parseNumber, or exit via usage(). */
template <typename T>
T
numberFlag(const std::string &flag, const std::string &value)
{
    const auto v = util::parseNumber<T>(value);
    if (!v)
        usage(("bad value for " + flag).c_str());
    return *v;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        usage();
    // A flag in command position means "summary" was implied, so a
    // bare `solarcore_cli --telemetry-out=t.csv ...` works.
    int first_flag = 2;
    if (std::strncmp(argv[1], "--", 2) == 0) {
        first_flag = 1;
    } else {
        opt.command = argv[1];
        if (opt.command != "summary" && opt.command != "timeline" &&
            opt.command != "trace" && opt.command != "sweep")
            usage();
    }

    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage();
        return std::string(argv[i + 1]);
    };
    for (int i = first_flag; i < argc;) {
        if (opt.obs.consume(argv[i])) {
            ++i;
            continue;
        }
        const std::string key = argv[i];
        const std::string val = need(i);
        i += 2;
        if (key == "--site") {
            bool found = false;
            for (auto s : solar::allSites())
                if (val == solar::siteName(s)) {
                    opt.site = s;
                    found = true;
                }
            if (!found)
                usage();
        } else if (key == "--month") {
            bool found = false;
            for (auto m : solar::allMonths())
                if (val == solar::monthName(m)) {
                    opt.month = m;
                    found = true;
                }
            if (!found)
                usage();
        } else if (key == "--workload") {
            bool found = false;
            for (auto w : workload::allWorkloads())
                if (val == workload::workloadName(w)) {
                    opt.workload = w;
                    found = true;
                }
            if (!found)
                usage();
        } else if (key == "--policy") {
            if (val == "opt")
                opt.policy = core::PolicyKind::MpptOpt;
            else if (val == "rr")
                opt.policy = core::PolicyKind::MpptRr;
            else if (val == "ic")
                opt.policy = core::PolicyKind::MpptIc;
            else if (val == "icm")
                opt.policy = core::PolicyKind::MpptIcMotion;
            else if (val == "fixed")
                opt.policy = core::PolicyKind::FixedPower;
            else
                usage();
        } else if (key == "--budget") {
            opt.budgetW = numberFlag<double>(key, val);
            if (opt.budgetW < 0.0)
                usage("--budget must be >= 0");
        } else if (key == "--seed") {
            opt.seed = numberFlag<std::uint64_t>(key, val);
        } else if (key == "--days") {
            opt.days = numberFlag<int>(key, val);
            if (opt.days < 1)
                usage("--days must be >= 1");
        } else if (key == "--dt") {
            opt.dtSeconds = numberFlag<double>(key, val);
            if (opt.dtSeconds <= 0.0)
                usage("--dt must be positive");
        } else if (key == "--threshold") {
            opt.thresholdW = numberFlag<double>(key, val);
            if (opt.thresholdW < 0.0)
                usage("--threshold must be >= 0");
        } else if (key == "--pv-kernel") {
            const auto kernel = pv::resolvePvKernel(val);
            if (!kernel)
                usage("unknown --pv-kernel, or not supported on this "
                      "cpu");
            opt.pvKernel = *kernel;
        } else {
            usage();
        }
    }
    return opt;
}

core::SimConfig
toSimConfig(const Options &opt, bool timeline)
{
    core::SimConfig cfg;
    cfg.policy = opt.policy;
    cfg.fixedBudgetW = opt.budgetW;
    cfg.seed = opt.seed;
    cfg.dtSeconds = opt.dtSeconds;
    cfg.thresholdW = opt.thresholdW;
    cfg.recordTimeline = timeline;
    cfg.recorders = opt.recorders;
    return cfg;
}

int
runSummary(const Options &opt)
{
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(opt.site, opt.month, opt.seed);
    const auto r = core::simulateDay(module, trace, opt.workload,
                                     toSimConfig(opt, false));
    TextTable t;
    t.header({"metric", "value"});
    t.row({"pattern", std::string(solar::siteName(opt.site)) + "-" +
                          solar::monthName(opt.month)});
    t.row({"workload", workload::workloadName(opt.workload)});
    t.row({"policy", core::policyName(opt.policy)});
    t.row({"MPP energy [Wh]", TextTable::num(r.mppEnergyWh, 1)});
    t.row({"solar energy [Wh]", TextTable::num(r.solarEnergyWh, 1)});
    t.row({"grid energy [Wh]", TextTable::num(r.gridEnergyWh, 1)});
    t.row({"utilization", TextTable::pct(r.utilization)});
    t.row({"effective duration", TextTable::pct(r.effectiveFraction)});
    t.row({"tracking error", TextTable::pct(r.avgTrackingError)});
    t.row({"solar PTP [Tinstr]",
           TextTable::num(r.solarInstructions / 1e12, 2)});
    t.print(std::cout);
    return 0;
}

int
runTimeline(const Options &opt)
{
    const auto module = pv::buildBp3180n();
    const auto trace =
        solar::generateDayTrace(opt.site, opt.month, opt.seed);
    const auto r = core::simulateDay(module, trace, opt.workload,
                                     toSimConfig(opt, true));
    std::cout << "minute,budget_w,consumed_w,on_solar\n";
    for (const auto &p : r.timeline) {
        std::cout << p.minute << ',' << p.budgetW << ',' << p.consumedW
                  << ',' << (p.onSolar ? 1 : 0) << '\n';
    }
    return 0;
}

int
runTrace(const Options &opt)
{
    const auto trace =
        solar::generateDayTrace(opt.site, opt.month, opt.seed);
    trace.saveCsv(std::cout);
    return 0;
}

int
runSweep(const Options &opt)
{
    const auto module = pv::buildBp3180n();
    const auto agg = core::simulateManyDays(module, opt.site, opt.month,
                                            opt.workload,
                                            toSimConfig(opt, false),
                                            opt.days, opt.seed);
    TextTable t;
    t.header({"metric", "mean", "min", "max", "stddev"});
    auto row = [&](const char *name, const RunningStats &st,
                   bool pct) {
        auto fmt = [&](double v) {
            return pct ? TextTable::pct(v) : TextTable::num(v, 1);
        };
        t.row({name, fmt(st.mean()), fmt(st.min()), fmt(st.max()),
               fmt(st.stddev())});
    };
    row("utilization", agg.utilization, true);
    row("effective duration", agg.effectiveFraction, true);
    row("tracking error", agg.trackingError, true);
    row("solar energy [Wh]", agg.solarEnergyWh, false);
    t.print(std::cout);
    std::cout << agg.days << " simulated days\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    pv::setPvKernel(opt.pvKernel);

    obs::RunManifest manifest(argc, argv);
    obs::Recorders day(opt.obs);
    // --metrics-out alone is enough to collect stats: the exposition
    // is rendered from the registry even when no --stats-out is given.
    if (opt.obs.metricsRequested() && !day.stats)
        day.stats = std::make_unique<obs::StatsRegistry>();
    opt.recorders = &day;
    std::optional<obs::Profiler::Attach> attach;
    if (day.profiler)
        attach.emplace(day.profiler.get());

    if (opt.obs.postmortemRequested()) {
        obs::FlightRecorderConfig fr_cfg;
        fr_cfg.outputPath = opt.obs.postmortemOut;
        obs::FlightRecorder::install(fr_cfg);
        if (!opt.obs.manifestOut.empty())
            obs::FlightRecorder::setManifestPath(opt.obs.manifestOut);
        obs::FlightRecorder::beginUnit(opt.command.c_str(),
                                       day.trace.get());
    }
    obs::MetricsEndpoint metrics;
    if (opt.obs.metricsPort >= 0 &&
        metrics.start(opt.obs.metricsPort)) {
        std::cerr << "solarcore_cli: serving metrics on 127.0.0.1:"
                  << metrics.port() << "\n";
    }

    int rc;
    if (opt.command == "summary")
        rc = runSummary(opt);
    else if (opt.command == "timeline")
        rc = runTimeline(opt);
    else if (opt.command == "trace")
        rc = runTrace(opt);
    else
        rc = runSweep(opt);

    attach.reset(); // close the profiler before dumping it
    day.foldAudit();
    obs::StatsRegistry stats;
    obs::writeRun(opt.obs, {&day, 1}, {"day"}, obs::TelemetryLayout::Day,
                  stats, manifest);
    if (opt.obs.anyRequested()) {
        manifest.set("command", opt.command);
        manifest.set("site", std::string(solar::siteName(opt.site)));
        manifest.set("month", std::string(solar::monthName(opt.month)));
        manifest.set("workload",
                     std::string(workload::workloadName(opt.workload)));
        manifest.set("policy", std::string(core::policyName(opt.policy)));
        manifest.set("budget_w", opt.budgetW);
        manifest.set("threshold_w", opt.thresholdW);
        manifest.set("dt_seconds", opt.dtSeconds);
        manifest.set("pv_kernel",
                     std::string(
                         pv::pvKernelName(pv::selectedPvKernel())));
        manifest.set("days",
                     static_cast<std::uint64_t>(opt.days));
        manifest.setSeed(opt.seed);
        opt.obs.writeManifest(manifest);
    }
    if (opt.obs.metricsRequested()) {
        obs::OpenMetricsWriter w;
        if (day.stats)
            obs::appendRegistry(w, *day.stats);
        if (day.profiler)
            obs::appendProfiler(w, *day.profiler);
        metrics.update(w.finish());
        if (!opt.obs.metricsOut.empty())
            metrics.writeSnapshot(opt.obs.metricsOut);
    }
    return rc;
}
