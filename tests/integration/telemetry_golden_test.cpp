/**
 * @file
 * Golden-compatible telemetry smoke test: one instrumented simulated
 * day (waveform recorder + self-profiler + invariant auditor all
 * attached) digested into a small JSON summary and diffed against
 * tests/golden/telemetry_smoke.json with the campaign golden oracle.
 *
 * The digest keeps per-channel envelope statistics rather than raw
 * rows, so the golden stays a few hundred bytes while still pinning
 * the waveform shapes (a broken channel wiring shows up as a shifted
 * mean or a vanished min/max). Regenerate after an intentional model
 * change with:
 *
 *   SC_UPDATE_GOLDEN=1 ./tests/integration/integration_tests \
 *       --gtest_filter='TelemetryGolden.*'
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/golden.hpp"
#include "core/solarcore.hpp"
#include "obs/json.hpp"
#include "obs/recorders.hpp"

#ifndef SOLARCORE_GOLDEN_DIR
#error "SOLARCORE_GOLDEN_DIR must point at tests/golden"
#endif

namespace solarcore {
namespace {

std::string
goldenPath()
{
    return std::string(SOLARCORE_GOLDEN_DIR) + "/telemetry_smoke.json";
}

/** Render the digest JSON of one instrumented day. */
std::string
digest(obs::TelemetryRecorder &telem, const obs::Auditor &audit)
{
    using obs::jsonNumber;
    telem.flush();
    std::ostringstream os;
    os << "{\n  \"schema\": \"solarcore-telemetry-smoke-v1\",\n";
    os << "  \"steps\": " << jsonNumber(telem.stepCount()) << ",\n";
    os << "  \"rows\": " << jsonNumber(telem.rowCount()) << ",\n";
    os << "  \"audit_violations\": " << jsonNumber(audit.violationCount())
       << ",\n";
    os << "  \"channels\": {\n";
    for (std::size_t c = 0; c < telem.channelCount(); ++c) {
        double lo = 0.0, hi = 0.0, sum = 0.0;
        std::size_t n = 0;
        for (std::size_t r = 0; r < telem.rowCount(); ++r) {
            const double v = telem.value(r, c);
            if (std::isnan(v))
                continue;
            if (n == 0) {
                lo = hi = v;
            } else {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            sum += v;
            ++n;
        }
        os << "    \"" << telem.channelName(c) << "\": {\"rows\": "
           << jsonNumber(n) << ", \"min\": " << jsonNumber(lo)
           << ", \"max\": " << jsonNumber(hi) << ", \"mean\": "
           << jsonNumber(n ? sum / static_cast<double>(n) : 0.0) << '}'
           << (c + 1 < telem.channelCount() ? "," : "") << '\n';
    }
    os << "  }\n}\n";
    return os.str();
}

TEST(TelemetryGolden, InstrumentedDayMatchesBaseline)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Apr, 1);

    obs::Recorders rec;
    rec.telemetry = std::make_unique<obs::TelemetryRecorder>(
        4, obs::TelemetryMode::EveryN);
    rec.audit = std::make_unique<obs::Auditor>(); // counting mode
    obs::TelemetryRecorder &telem = *rec.telemetry;
    obs::Auditor &audit = *rec.audit;
    obs::Profiler profiler;

    core::SimConfig cfg;
    cfg.dtSeconds = 60.0;
    cfg.recorders = &rec;
    {
        obs::Profiler::Attach attach(&profiler);
        core::simulateDay(module, trace, workload::WorkloadId::HM2, cfg);
    }

    // The default scenario satisfies every invariant; a violation here
    // means a physics regression (or an over-tight tolerance that
    // would kill --audit=strict runs in CI).
    EXPECT_EQ(audit.violationCount(), 0u);
    EXPECT_GT(audit.stepsAudited(), 0u);

    // The embedded scopes account for essentially the whole day loop:
    // the per-step scope plus the batched MPP precompute that runs
    // before the step loop.
    const auto *day =
        profiler.root().children.count("day")
            ? profiler.root().children.at("day").get()
            : nullptr;
    ASSERT_NE(day, nullptr);
    ASSERT_EQ(day->children.count("step"), 1u);
    double scoped_ns =
        static_cast<double>(day->children.at("step")->totalNs);
    if (day->children.count("pv.findMppBatch"))
        scoped_ns += static_cast<double>(
            day->children.at("pv.findMppBatch")->totalNs);
    EXPECT_GE(scoped_ns, 0.9 * static_cast<double>(day->totalNs));

    const std::string got = digest(telem, audit);

    if (std::getenv("SC_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << got;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden " << goldenPath()
                    << " (run with SC_UPDATE_GOLDEN=1 to create)";
    std::stringstream want;
    want << in.rdbuf();

    campaign::FlatJson golden, candidate;
    std::string error;
    ASSERT_TRUE(campaign::parseJsonFlat(want.str(), golden, error))
        << error;
    ASSERT_TRUE(campaign::parseJsonFlat(got, candidate, error)) << error;
    const auto diffs = campaign::compareFlat(golden, candidate, {});
    for (const auto &d : diffs) {
        ADD_FAILURE() << d.path << ": golden=" << d.golden
                      << " candidate=" << d.candidate;
    }
}

} // namespace
} // namespace solarcore
