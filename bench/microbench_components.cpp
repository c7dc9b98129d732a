/**
 * @file
 * google-benchmark microbenchmarks of the hot components: the PV I-V
 * solve, MPP search, network operating-point solve, the performance /
 * power model evaluations, the DP allocator and a full simulated day.
 * These guard the simulation's throughput (the Figure 16-21 sweeps run
 * thousands of simulated days).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_common.hpp"
#include "pv/pv_kernel.hpp"
#include "obs/recorders.hpp"

using namespace solarcore;

namespace {

void
BM_CellCurrentSolve(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    const pv::Environment env{800.0, 40.0};
    double v = 20.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(module.currentAt(v, env));
        v = v < 40.0 ? v + 0.1 : 20.0;
    }
}
BENCHMARK(BM_CellCurrentSolve);

void
BM_CellCurrentSolveNewton(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    const pv::Environment env{800.0, 40.0};
    pv::setNewtonIvSolve(true);
    double v = 20.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(module.currentAt(v, env));
        v = v < 40.0 ? v + 0.1 : 20.0;
    }
    pv::setNewtonIvSolve(false);
}
BENCHMARK(BM_CellCurrentSolveNewton);

void
BM_FindMpp(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    for (auto _ : state)
        benchmark::DoNotOptimize(pv::findMpp(array));
}
BENCHMARK(BM_FindMpp);

void
BM_FindMppNewton(benchmark::State &state)
{
    // The seed implementation: golden-section over the Newton-solved
    // I-V curve, via the generic IvSource overload.
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    const auto &source = static_cast<const pv::IvSource &>(array);
    pv::setNewtonIvSolve(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(pv::findMpp(source));
    pv::setNewtonIvSolve(false);
}
BENCHMARK(BM_FindMppNewton);

void
BM_PinRailVoltage(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    power::DcDcConverter conv;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power::pinRailVoltage(array, conv, 12.0, 60.0));
}
BENCHMARK(BM_PinRailVoltage);

// --- batched SoA MPP kernel (scalar oracle vs AVX2) -----------------

/** A varied light-lane trace for the batch benches. */
std::vector<pv::Environment>
batchEnvTrace(std::size_t n)
{
    std::vector<pv::Environment> envs(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double frac =
            static_cast<double>(k % 97) / 96.0; // co-prime stride
        envs[k] = {120.0 + 880.0 * frac, 18.0 + 32.0 * frac};
    }
    return envs;
}

void
runFindMppBatch(benchmark::State &state, pv::PvKernel kernel)
{
    if (!pv::pvKernelSupported(kernel)) {
        state.SkipWithError("kernel not supported on this machine");
        return;
    }
    const auto &module = bench::standardModule();
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto envs = batchEnvTrace(n);
    std::vector<pv::MppResult> out(n);
    const pv::PvKernel prev = pv::selectedPvKernel();
    pv::setPvKernel(kernel);
    for (auto _ : state) {
        pv::findMppBatch(module, 1, 1, envs, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    pv::setPvKernel(prev);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_FindMppBatchScalar(benchmark::State &state)
{
    runFindMppBatch(state, pv::PvKernel::Scalar);
}
BENCHMARK(BM_FindMppBatchScalar)->Arg(1024);

void
BM_FindMppBatchAvx2(benchmark::State &state)
{
    runFindMppBatch(state, pv::PvKernel::Avx2);
}
BENCHMARK(BM_FindMppBatchAvx2)->Arg(1024);

void
BM_PinRailVoltagePrepared(benchmark::State &state)
{
    // The controller fast path: warm Newton on a prepared environment
    // (compare against BM_PinRailVoltage, the findMpp + bisect path).
    const auto &module = bench::standardModule();
    pv::PreparedArray prepared(module, 1, 1);
    prepared.setEnvironment({800.0, 40.0});
    power::DcDcConverter conv;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power::pinRailVoltage(prepared, conv, 12.0, 60.0));
}
BENCHMARK(BM_PinRailVoltagePrepared);

void
BM_PerfModelEvaluate(benchmark::State &state)
{
    const cpu::PerfModel model{cpu::CoreConfig{}};
    const auto profile = workload::benchmark("gcc");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.evaluate(profile.phases.front(), 2.5e9));
}
BENCHMARK(BM_PerfModelEvaluate);

void
BM_PowerModelEvaluate(benchmark::State &state)
{
    const cpu::PerfModel perf{cpu::CoreConfig{}};
    const cpu::PowerModel power{cpu::EnergyParams{}};
    const auto profile = workload::benchmark("gcc");
    const auto pe = perf.evaluate(profile.phases.front(), 2.5e9);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power.evaluate(profile.phases.front(), pe, 1.45, 2.5e9));
}
BENCHMARK(BM_PowerModelEvaluate);

void
BM_DpAllocator(benchmark::State &state)
{
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            1);
    const double budget = static_cast<double>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::optimizeAllocation(chip, budget));
}
BENCHMARK(BM_DpAllocator)->Arg(50)->Arg(100)->Arg(200);

void
BM_ControllerTrack(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            1);
    core::TprOptAdapter adapter;
    core::SolarCoreController ctl(array, chip, adapter);
    for (auto _ : state) {
        chip.gateAll();
        benchmark::DoNotOptimize(ctl.track());
    }
}
BENCHMARK(BM_ControllerTrack);

void
BM_SimulatedDay(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDay)->Arg(60)->Arg(30)->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayNewton(benchmark::State &state)
{
    // Seed-equivalent end-to-end path: Newton I-V solves everywhere.
    pv::setNewtonIvSolve(true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
    pv::setNewtonIvSolve(false);
}
BENCHMARK(BM_SimulatedDayNewton)
    ->Arg(60)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayScalarKernel(benchmark::State &state)
{
    // End-to-end day with the batch MPP kernel disabled. The
    // controller pins through PreparedArray under either kernel, so
    // everything the default BM_SimulatedDay gains over this row is
    // the SIMD batching of the staged step MPPs.
    const pv::PvKernel prev = pv::selectedPvKernel();
    pv::setPvKernel(pv::PvKernel::Scalar);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
    pv::setPvKernel(prev);
}
BENCHMARK(BM_SimulatedDayScalarKernel)
    ->Arg(60)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

void
BM_StatScalarIncrement(benchmark::State &state)
{
    // The registry hot path: a double add on a reference obtained once
    // at registration time (the registry map is never touched again).
    obs::StatsRegistry reg;
    auto &counter = reg.scalar("chip.core0.dvfsTransitions");
    for (auto _ : state) {
        ++counter;
        benchmark::DoNotOptimize(&counter);
    }
}
BENCHMARK(BM_StatScalarIncrement);

void
BM_TraceAppendEnabled(benchmark::State &state)
{
    // One ring-buffer append: stamp, store, advance.
    obs::TraceBuffer buf(1 << 16);
    buf.setNow(720.0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::DvfsChange;
    e.core = 3;
    e.i0 = 4;
    e.i1 = 5;
    e.v0 = 5.2;
    for (auto _ : state) {
        buf.emit(e);
        benchmark::DoNotOptimize(&buf);
    }
}
BENCHMARK(BM_TraceAppendEnabled);

void
BM_TraceAppendDisabled(benchmark::State &state)
{
    // The disabled-sink pattern every emitter uses: a null check and
    // nothing else. This is the cost tracing adds when off.
    obs::TraceBuffer *trace = nullptr;
    benchmark::DoNotOptimize(trace);
    obs::TraceEvent e;
    e.kind = obs::EventKind::DvfsChange;
    for (auto _ : state) {
        if (trace)
            trace->emit(e);
        benchmark::DoNotOptimize(&e);
    }
}
BENCHMARK(BM_TraceAppendDisabled);

void
BM_TelemetrySampleStep(benchmark::State &state)
{
    // One recorded waveform step of a representative channel set:
    // begin, ten sets, commit. The per-step cost of --telemetry-out.
    obs::TelemetryRecorder rec;
    obs::TelemetryRecorder::ChannelId ids[10];
    for (int c = 0; c < 10; ++c)
        ids[c] = rec.channel("ch" + std::to_string(c), "W");
    double minute = 0.0;
    for (auto _ : state) {
        rec.beginStep(minute);
        for (int c = 0; c < 10; ++c)
            rec.set(ids[c], minute + c);
        rec.endStep();
        minute += 0.25;
        if (rec.rowCount() >= (1u << 16))
            rec.clear(); // bound memory; channels stay registered
    }
}
BENCHMARK(BM_TelemetrySampleStep);

void
BM_ProfileScopeDetached(benchmark::State &state)
{
    // SC_PROFILE_SCOPE with no profiler attached: one thread-local
    // load and a branch. This is what the scopes embedded in the
    // batched MPP solve / TPR allocator cost in every normal run.
    for (auto _ : state) {
        SC_PROFILE_SCOPE("detached");
        benchmark::DoNotOptimize(&state);
    }
}
BENCHMARK(BM_ProfileScopeDetached);

void
BM_ProfileScopeAttached(benchmark::State &state)
{
    // The attached cost: two clock reads plus a map walk on the first
    // visit (amortized to a pointer chase afterwards).
    obs::Profiler profiler;
    obs::Profiler::Attach attach(&profiler);
    for (auto _ : state) {
        SC_PROFILE_SCOPE("attached");
        benchmark::DoNotOptimize(&state);
    }
}
BENCHMARK(BM_ProfileScopeAttached);

void
BM_AuditorCheckStep(benchmark::State &state)
{
    // One audited step's worth of passing checks in counting mode.
    obs::Auditor audit;
    double drawn = 60.0;
    for (auto _ : state) {
        audit.setNow(720.0);
        audit.countStep();
        audit.checkBudget(drawn, 75.0, "bench");
        audit.checkRailVoltage(12.0, 12.0, "bench");
        audit.checkSocRange(0.5, "bench");
        benchmark::DoNotOptimize(&audit);
        drawn = drawn > 70.0 ? 60.0 : drawn + 0.01;
    }
}
BENCHMARK(BM_AuditorCheckStep);

void
BM_SimulatedDayObsOff(benchmark::State &state)
{
    // Observability compiled in and constructed but not attached: the
    // simulation sees null sinks. run_microbench.sh asserts this stays
    // within 1% of BM_SimulatedDay (no obs objects at all).
    obs::StatsRegistry reg;
    obs::TraceBuffer buf(1 << 16);
    benchmark::DoNotOptimize(&reg);
    benchmark::DoNotOptimize(&buf);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDayObsOff)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayTraced(benchmark::State &state)
{
    // Full observability: stats registry plus event trace attached.
    obs::Recorders rec;
    rec.stats = std::make_unique<obs::StatsRegistry>();
    rec.trace = std::make_unique<obs::TraceBuffer>(1 << 16);
    for (auto _ : state) {
        rec.trace->clear();
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), &rec));
    }
}
BENCHMARK(BM_SimulatedDayTraced)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayTelemetry(benchmark::State &state)
{
    // Waveform recording attached: every step samples the full
    // channel superset (panel, converter, rail, chip, per-core).
    obs::Recorders rec;
    rec.telemetry = std::make_unique<obs::TelemetryRecorder>();
    for (auto _ : state) {
        rec.telemetry->clear();
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), &rec));
    }
}
BENCHMARK(BM_SimulatedDayTelemetry)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayProfiled(benchmark::State &state)
{
    // Self-profiler attached: every embedded scope takes two clock
    // reads instead of the detached null-check.
    obs::Profiler profiler;
    obs::Profiler::Attach attach(&profiler);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDayProfiled)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayAudited(benchmark::State &state)
{
    // Invariant auditor in counting mode: the per-step physics checks
    // (budget, rail, panel point, per-core DVFS legality).
    for (auto _ : state) {
        obs::Recorders rec;
        rec.audit = std::make_unique<obs::Auditor>();
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), &rec));
    }
}
BENCHMARK(BM_SimulatedDayAudited)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_TrackingSweepParallel(benchmark::State &state)
{
    // The fig13/fig14 policy sweep body: three tracked days dispatched
    // through the worker pool (thread count = benchmark argument).
    const int threads = static_cast<int>(state.range(0));
    const auto policies = {core::PolicyKind::MpptOpt,
                           core::PolicyKind::MpptIc,
                           core::PolicyKind::MpptRr};
    for (auto _ : state) {
        ThreadPool pool(threads);
        std::vector<core::DayResult> results(policies.size());
        pool.parallelFor(policies.size(), [&](std::size_t i) {
            results[i] = bench::runDay(
                solar::SiteId::AZ, solar::Month::Jan,
                workload::WorkloadId::HM2, *(policies.begin() + i), 75.0,
                false, 60.0);
        });
        benchmark::DoNotOptimize(results.data());
    }
}
BENCHMARK(BM_TrackingSweepParallel)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
