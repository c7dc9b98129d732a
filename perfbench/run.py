#!/usr/bin/env python3
"""SolarCore benchmark: build the driver, run one workload, print metrics.

    python3 perfbench/run.py --workload campaign-full --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench_driver (Release) under .bench_build/perfbench; later runs only
re-check the build. Workloads: campaign-full, campaign-mppt,
campaign-observed, serve-plan (see README.md next to this file).

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
a separate traced run that fills the per-layer ledger, reports its own
overhead against interleaved untraced runs, and (campaign-full) the
thread/worker scaling side-report. Human-readable reports go to stdout
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Any refusal or failure exits non-zero
without printing that line.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-full", "campaign-mppt", "campaign-observed",
             "serve-plan")

# Latency limits of slo_ok_pct [ms], frozen with the benchmark and quoted
# in each workload's "why" in BENCHMARK.json. A campaign "request" is one
# whole campaign invocation; a serve request is one planning query.
SLO_MS = {
    "campaign-full": 2000,
    "campaign-mppt": 1200,
    "campaign-observed": 2500,
    "serve-plan": 250,
}
# Set-up probes per run; set-up is reported as their median. A campaign
# probe runs one whole campaign, a serve probe only starts the daemon.
SETUP_PROBES = {"campaign-observed": 5, "serve-plan": 21}
DEFAULT_SETUP_PROBES = 7
# Budget for probes plus the measured run, counted after the build.
DRIVER_TIMEOUT_S = 160

# Profiler scopes (src/ SC_PROFILE_SCOPE names) -> layer (src/ module).
# campaign.unit, day and step are structure: their self time is the
# unattributed remainder of the ledger.
SCOPE_LAYER = {
    "alloc.optimize": "core", "controller.track": "core",
    "controller.enforce": "core", "tpr.step": "core",
    "network.pin": "power", "network.pinPrepared": "power",
    "chip.step": "cpu",
    "mpp.lookup": "pv", "mpp.solve": "pv", "mpp.lookupBatch": "pv",
    "mpp.solveBatch": "pv", "pv.findMppBatch": "pv", "pv.evalIvBatch": "pv",
    "telemetry": "obs", "audit": "obs",
}
STRUCTURE_SCOPES = ("campaign.unit", "day", "step")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def iqr(values):
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


# ----------------------------------------------------------------------
# Build and host checks.

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cache_build_type(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return ""


def build():
    """Configure (once) and build perfbench_driver; return its path."""
    bdir = build_dir()
    log = []

    def step(cmd):
        proc = subprocess.run(cmd, cwd=ROOT, env=scratch_env(bdir),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        log.append(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write("".join(log)[-4000:])
            fail(2, "build failed: " + " ".join(cmd))

    if cache_build_type(bdir) is None:
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    build_type = cache_build_type(bdir)
    if build_type != "Release":
        fail(3, "refusing a non-Release build tree (%s: %r)"
             % (bdir, build_type))
    step(["cmake", "--build", bdir, "--target", "perfbench_driver",
          "-j", str(host_cpus())])
    return os.path.join(bdir, "perfbench_driver"), build_type


def scratch_env(directory):
    """Environment whose temporary files (compiler, library) stay inside
    @directory, so the benchmark writes nothing outside its checkout."""
    tmp = os.path.join(directory, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_describe():
    try:
        # The ceiling keeps git from describing an enclosing repository
        # when the checkout itself is not one.
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------------
# Driver invocations.

def run_driver(driver, args, deadline, tmp):
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([driver] + args, env=scratch_env(tmp),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(6, "driver timed out: " + " ".join(args[:2]))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(proc.returncode, "driver failed (exit %d): %s"
             % (proc.returncode, " ".join(args[:2])))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def setup_seconds(driver, workload, seed, tmp, deadline, extra):
    """Median time from main() of a fresh probe process to the first unit
    of work, plus each probe's time from its launch (with process start).

    Process start (exec and page-in of the driver, about 1 ms) belongs to
    the benchmark's own binary, not to the simulator, and is the part of
    a probe that swings with the host: launch-to-ready read 1.4-6 ms
    while the part after main() stayed at 0.3-0.5 ms."""
    samples, launched_s = [], []
    for k in range(SETUP_PROBES.get(workload, DEFAULT_SETUP_PROBES)):
        probe_dir = os.path.join(tmp, "probe%d" % k)
        os.makedirs(probe_dir)
        launched = time.monotonic_ns()
        out = run_driver(driver, ["probe", "--workload=" + workload,
                                  "--seed=%d" % seed, "--tmp=" + probe_dir,
                                  "--ref-dir=" + os.path.join(HERE, "ref")]
                         + extra, deadline, tmp)
        if "ready_ns" in out:
            ready = out["ready_ns"]
        else:
            spans = read_jsonl(os.path.join(probe_dir, out["spans"]))
            ready = min(s["start_ns"] for s in spans if s["name"] == "unit")
        samples.append((ready - out["main_ns"]) / 1e9)
        launched_s.append((ready - launched) / 1e9)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples), samples, launched_s


# ----------------------------------------------------------------------
# Profiles and spans -> per-layer numbers.

def profile_scopes(path):
    """Scope name -> {count, total_us, self_us}, summed over the tree."""
    with open(path) as f:
        doc = json.load(f)
    scopes = {}

    def walk(node):
        kids = node.get("children", [])
        child_us = sum(k["total_us"] for k in kids)
        s = scopes.setdefault(node["name"],
                              {"count": 0, "total_us": 0.0, "self_us": 0.0})
        s["count"] += node["count"]
        s["total_us"] += node["total_us"]
        s["self_us"] += max(0.0, node["total_us"] - child_us)
        for k in kids:
            walk(k)

    for phase in doc.get("phases", []):
        walk(phase)
    return scopes


def merge_scopes(all_scopes):
    merged = {}
    for scopes in all_scopes:
        for name, s in scopes.items():
            m = merged.setdefault(name,
                                  {"count": 0, "total_us": 0.0, "self_us": 0.0})
            for key in m:
                m[key] += s[key]
    return merged


def ledger(scopes, units, measured_us):
    """Layer self-time ledger of a merged profile over @units units."""
    get = lambda name, key: scopes.get(name, {}).get(key, 0.0)
    profiled_us = get("campaign.unit", "total_us")
    layers = {}
    for name, s in scopes.items():
        if name in STRUCTURE_SCOPES:
            continue
        layer = SCOPE_LAYER.get(name, "other:" + name)
        layers[layer] = layers.get(layer, 0.0) + s["self_us"]
    unattributed = sum(get(n, "self_us") for n in STRUCTURE_SCOPES)
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    rows.append(("unattributed (campaign.unit+day+step self)",
                 unattributed))
    per_unit = lambda us: us / units if units else 0.0
    pin_calls = get("network.pin", "count") + get("network.pinPrepared",
                                                  "count")
    pin_us = get("network.pin", "total_us") + get("network.pinPrepared",
                                                  "total_us")
    metrics = {
        "core.alloc_us_per_unit": per_unit(get("alloc.optimize", "self_us")),
        "core.alloc_calls": per_unit(get("alloc.optimize", "count")),
        "core.enforce_us_per_unit":
            per_unit(get("controller.enforce", "self_us")),
        "core.track_us_per_unit": per_unit(get("controller.track", "self_us")),
        "core.tpr_steps": per_unit(get("tpr.step", "count")),
        "core.step_self_us_per_unit": per_unit(get("step", "self_us")),
        "power.pin_calls": per_unit(pin_calls),
        "power.pin_ns_mean": pin_us * 1e3 / pin_calls if pin_calls else 0.0,
        "cpu.chip_step_us_per_unit": per_unit(get("chip.step", "self_us")),
        "pv.mpp_batch_us_per_unit": per_unit(layers.get("pv", 0.0)),
        "obs.audit_share_pct":
            100.0 * get("audit", "total_us") / profiled_us
            if profiled_us else 0.0,
        "ledger.unattributed_pct":
            100.0 * unattributed / profiled_us if profiled_us else 0.0,
        "ledger.coverage_err_pct":
            100.0 * abs(profiled_us - measured_us) / measured_us
            if measured_us else 0.0,
    }
    step_total = get("step", "total_us")
    report = ["layer ledger over %d profiled units (%.1f us/unit profiled, "
              "%.1f us/unit measured from outside):"
              % (units, per_unit(profiled_us), per_unit(measured_us))]
    for layer, us in rows:
        report.append("  %-46s %10.1f us/unit %6.1f %%"
                      % (layer, per_unit(us),
                         100.0 * us / profiled_us if profiled_us else 0.0))
    if step_total:
        report.append("  step self time is %.1f %% of step"
                      % (100.0 * get("step", "self_us") / step_total))
    report.append("  ledger vs measured unit time: %.2f %% apart (%s, limit "
                  "5 %%)" % (metrics["ledger.coverage_err_pct"],
                             "ok" if metrics["ledger.coverage_err_pct"] <= 5
                             else "NOT RECONCILED"))
    return metrics, report


def unit_span_stats(span_files, threads):
    """Unit latency, pool occupancy and tail from campaign span exports."""
    durations, busy, tails = [], [], []
    for path in span_files:
        spans = read_jsonl(path)
        units = [s for s in spans if s["name"] == "unit"]
        phase = [s for s in spans if s["name"] == "inproc"]
        durations += [(s["end_ns"] - s["start_ns"]) / 1e6 for s in units]
        if not phase or not units:
            continue
        p0, p1 = phase[0]["start_ns"], phase[0]["end_ns"]
        busy.append(100.0 * sum(s["end_ns"] - s["start_ns"] for s in units)
                    / (threads * (p1 - p0)))
        # Tail: the final stretch of the phase in which the pool was no
        # longer full (fewer than `threads` units running).
        events = sorted([(s["start_ns"], 1) for s in units] +
                        [(s["end_ns"], -1) for s in units])
        running, last_full = 0, p0
        for t, delta in events:
            running += delta
            if running >= threads:
                last_full = t
        tails.append((p1 - last_full) / 1e6)
    return durations, busy, tails


def pipe_merge_ms(path):
    """Parent-side time from the last worker shard's end to drain end."""
    spans = read_jsonl(path)
    drain = [s for s in spans if s["name"] == "shard.drain"]
    shards = [s for s in spans if s["name"] == "shard"]
    if not drain or not shards:
        return 0.0
    return (drain[0]["end_ns"] - max(s["end_ns"] for s in shards)) / 1e6


# ----------------------------------------------------------------------
# Campaign workloads.

def campaign_checks(out):
    """Simulated aggregates of the first timed campaign, printed as
    checks next to the frozen reference values where the grid has them."""
    r = out["reps"][0]
    line = ("checks (unit seed %d, simulated): mean utilization %.6f, solar "
            "PTP share %.6f, retracks %d" % (r["seed"], r["mean_utilization"],
                                             r["solar_ptp_share"],
                                             r["retracks"]))
    ref_path = os.path.join(HERE, "ref", out["reference"])
    with open(ref_path) as f:
        for ref in (l.split() for l in f if l.startswith("seed ")):
            if int(ref[1]) == r["seed"] and out["whole_summary"]:
                line += "; frozen reference %s, %s, %s" % (ref[5], ref[7],
                                                          ref[9])
    return [line]


def campaign_e2e(workload, out):
    reps = [r for r in out["reps"] if r["mode"] == "untraced"]
    rates = [r["units"] / (r["ms"] / 1e3) for r in reps]
    ms = [r["ms"] for r in reps]
    ok = [r for r in reps if r["failed"] == 0 and r["ms"] <= SLO_MS[workload]]
    return {
        "units_per_s": (statistics.median(rates), "1/s"),
        "req_p50_ms": (quantile(ms, 0.5), "ms"),
        "req_p99_ms": (quantile(ms, 0.99), "ms"),
        "slo_ok_pct": (100.0 * len(ok) / len(reps), "%"),
    }, ["%d campaign invocations of %d units: %s ms"
        % (len(reps), out["grid_units"],
           " ".join("%.0f" % m for m in ms))]


def campaign_layers(out, tmp):
    traced = [r for r in out["reps"] if r["mode"] == "traced"]
    untraced = {r["seed"]: r for r in out["reps"] if r["mode"] == "untraced"}
    bare = {r["seed"]: r for r in out["reps"] if r["mode"] == "bare"}
    threads = traced[0]["threads"]
    units = sum(r["units"] for r in traced)
    at = lambda rel: os.path.join(tmp, rel)
    scopes = merge_scopes(profile_scopes(at(r["profile"])) for r in traced)
    durations, busy, tails = unit_span_stats(
        [at(r["spans"]) for r in traced], threads)
    metrics, report = ledger(scopes, units, sum(durations) * 1e3)

    hits = misses = 0.0
    for r in traced:
        with open(at(r["stats"])) as f:
            stats = json.load(f)
        hits += stats.get("pv.mppCache.hits", 0)
        misses += stats.get("pv.mppCache.misses", 0)
    telemetry_rows = []
    for r in traced:
        for path in glob.glob(at(r["stats"]).rsplit(".stats.json", 1)[0] +
                              ".*manifest.json"):
            with open(path) as f:
                telemetry_rows.append(
                    json.load(f).get("config", {}).get("telemetry_rows", 0))

    # Overhead: each traced repetition against the untraced one of the
    # same group (same unit seed), order alternating between groups.
    overhead = [100.0 * (r["ms"] / untraced[r["seed"]]["ms"] - 1.0)
                for r in traced if r["seed"] in untraced]
    ov_med = statistics.median(overhead)
    report.append("tracing overhead (paired, interleaved, %d pairs): "
                  "campaign time %+.1f %% median, IQR %.1f points"
                  % (len(overhead), ov_med, iqr(overhead)))
    if bare:
        recording = [100.0 * (1.0 - bare[s]["ms"] / untraced[s]["ms"])
                     for s in bare if s in untraced]
        rec_share = statistics.median(recording)
        report.append("recording share (sinks on vs off, %d pairs): "
                      "%.1f %% of wall time" % (len(recording), rec_share))
    else:
        profiled = scopes.get("campaign.unit", {}).get("total_us", 0.0)
        rec_share = (100.0 * scopes.get("telemetry", {}).get("total_us", 0.0)
                     / profiled) if profiled else 0.0
    sink_reps = [r for r in out["reps"] if r["mode"] == "untraced"]

    metrics.update({
        "pv.mpp_cache_hit_pct":
            100.0 * hits / (hits + misses) if hits + misses else 0.0,
        "solar.trace_gen_us_per_unit": out["trace_gen_us_per_unit"],
        "campaign.unit_ms_p50": quantile(durations, 0.5),
        "campaign.unit_ms_p99": quantile(durations, 0.99),
        "campaign.pool_busy_pct": statistics.mean(busy) if busy else 0.0,
        "campaign.tail_ms": statistics.mean(tails) if tails else 0.0,
        "campaign.pipe_merge_ms":
            pipe_merge_ms(at(out["pipe_spans"])) if "pipe_spans" in out
            else 0.0,
        "obs.trace_events": statistics.mean(r["trace_events"]
                                            for r in traced),
        "obs.telemetry_rows":
            statistics.mean(telemetry_rows) if telemetry_rows else 0.0,
        "obs.bytes_written":
            statistics.mean(r["sink_bytes"] for r in sink_reps),
        "obs.recording_share_pct": rec_share,
        "trace.overhead_pct": ov_med,
    })
    scaling = out.get("scaling", [])
    if scaling:
        base = [r for r in scaling if r["threads"] == 1 and r["workers"] == 1]
        base_rate = base[0]["units"] / base[0]["ms"] * 1e3 if base else 0.0
        report.append("scaling side-report (campaign-full, one unit seed, "
                      "nproc %d):" % out["nproc"])
        ref_hash = untraced[scaling[0]["seed"]]["summary_hash"] \
            if scaling[0]["seed"] in untraced else None
        for r in scaling:
            rate = r["units"] / r["ms"] * 1e3
            same = (r["summary_hash"] == ref_hash and r["failed"] == 0)
            report.append("  threads %d workers %d: %7.1f units/s  %.2fx  "
                          "summary %s" % (r["threads"], r["workers"], rate,
                                          rate / base_rate if base_rate else 0,
                                          "byte-identical" if same
                                          else "DIFFERS"))
            if r["threads"] == 4 and r["workers"] == 1 and base_rate:
                metrics["scale.threads4_speedup"] = rate / base_rate
            if r["threads"] == 1 and r["workers"] == 4 and base_rate:
                metrics["scale.workers4_speedup"] = rate / base_rate
    return metrics, report


# ----------------------------------------------------------------------
# serve-plan.

def serve_e2e(out):
    phase = out["phases"][0]
    samples = phase["samples"]
    # sample: [index, latency_ms, late_ms, call_ms, status, correct, units,
    # kind] (driver.cpp phaseJson)
    good = [s for s in samples if s[5]]
    lat = [s[1] for s in good] or [0.0]
    slo = [s for s in good if s[1] <= SLO_MS["serve-plan"]]
    snap = phase["snapshot"]
    # Units answered per second a connection spent waiting for its reply.
    # Per wall second it would only echo the open loop's offered load.
    busy_s = sum(s[3] for s in good) / 1e3
    metrics = {
        "units_per_s": (sum(s[6] for s in good) / busy_s if busy_s else 0.0,
                        "1/s"),
        "req_p50_ms": (quantile(lat, 0.5), "ms"),
        "req_p99_ms": (quantile(lat, 0.99), "ms"),
        "slo_ok_pct": (100.0 * len(slo) / len(samples), "%"),
    }
    kinds = {}
    for s in samples:
        kinds[s[7]] = kinds.get(s[7], 0) + 1
    report = [
        "open loop: %d requests at %.0f/s over %d connections, "
        "%d daemon workers; generator lateness p99 %.2f ms"
        % (len(samples), out["rate"], out["clients"], out["workers"],
           quantile([s[2] for s in samples], 0.99)),
        "checks: mix %s; answer-cache hits %d, unit-cache hits %d, "
        "units simulated %d, shed %d, expired %d"
        % (json.dumps(kinds, sort_keys=True), snap["result_cache_hits"],
           snap["unit_cache_hits"], snap["units_simulated"],
           snap["shed_capacity"] + snap["shed_deadline"], snap["expired"]),
    ]
    return metrics, report


def self_ms(span, kids):
    """A span's duration minus the part of it its child spans cover."""
    covered, cursor = 0, span["start_ns"]
    for k in sorted(kids, key=lambda k: k["start_ns"]):
        lo, hi = max(k["start_ns"], cursor), min(k["end_ns"], span["end_ns"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end_ns"] - span["start_ns"] - covered) / 1e6


def serve_layers(out, tmp):
    traced = [p for p in out["phases"] if p["traced"]]
    untraced = [p for p in out["phases"] if not p["traced"]]
    # The request id of schedule index i (sample[0]) is i + 1: warm-up
    # requests come first.
    timed = {(p["stream_seed"], s[0] + 1): s
             for p in traced for s in p["samples"]}
    by_name, request_ms = {}, {}
    structure_ms = 0.0  # self time of the request and service spans
    for p in traced:
        spans = read_jsonl(os.path.join(tmp, p["spans"]))
        root = {s["trace"]: s["attrs"]["request_id"]
                for s in spans if s["name"] == "request"}
        kids = {}
        for s in spans:
            kids.setdefault((s["trace"], s["parent"]), []).append(s)
        for s in spans:
            key = (p["stream_seed"], root.get(s["trace"]))
            if key not in timed:
                continue  # a warm-up request
            dur = (s["end_ns"] - s["start_ns"]) / 1e6
            name = s["name"]
            if name == "unit":
                name += ":" + s["attrs"].get("cache", "?")
            by_name.setdefault(name, []).append(dur)
            if s["name"] == "request":
                request_ms[key] = dur
            if s["name"] in ("request", "service"):
                structure_ms += self_ms(s, kids.get((s["trace"], s["span"]),
                                                    []))
    get = lambda name: by_name.get(name, [])
    q = lambda name, x: quantile(get(name), x) if get(name) else 0.0
    total = lambda name: sum(get(name))

    # Each row is measured on its own: named stages from their spans, the
    # remainder as the self time of the request and service spans, and
    # transport as client call time minus the request span. Their sum
    # must reconcile with the client call time of every timed request; a
    # request without spans, or spans that overlap or leave their parent,
    # shows as a gap.
    call_ms = sum(s[3] for s in timed.values())
    transport = sum(timed[k][3] - ms for k, ms in request_ms.items())
    named = {
        "serve queue.wait": total("queue.wait"),
        "campaign runUnit (unit-cache miss)": total("unit:miss"),
        "campaign unit-cache hit": total("unit:hit"),
        "core aggregate": total("aggregate"),
        "serve reply encode": total("reply"),
        "serve io.read + admit": total("io.read") + total("admit"),
    }
    ledger_ms = sum(named.values()) + structure_ms + transport
    coverage_err = 100.0 * abs(ledger_ms - call_ms) / call_ms if call_ms \
        else 0.0
    report = ["request ledger over %d traced requests (%.1f ms of client "
              "call time):" % (len(timed), call_ms)]
    rows = list(named.items()) + [
        ("client/socket transport (call - request span)", transport),
        ("unattributed (request + service self time)", structure_ms)]
    for name, ms in rows:
        report.append("  %-46s %10.1f ms %6.1f %%"
                      % (name, ms, 100.0 * ms / call_ms if call_ms else 0))
    report.append("  ledger vs client call time: %.2f %% apart (%s, limit "
                  "5 %%)" % (coverage_err, "ok" if coverage_err <= 5
                             else "NOT RECONCILED"))

    hits = sum(p["snapshot"]["result_cache_hits"] for p in traced)
    misses = sum(p["snapshot"]["result_cache_misses"] for p in traced)
    uhits = sum(p["snapshot"]["unit_cache_hits"] for p in traced)
    umiss = sum(p["snapshot"]["unit_cache_misses"] for p in traced)
    p50 = lambda p: quantile([s[1] for s in p["samples"] if s[5]] or [0], .5)
    overhead = [100.0 * (p50(t) / p50(u) - 1.0)
                for t, u in zip(traced, untraced) if p50(u) > 0]
    ov_med = statistics.median(overhead) if overhead else 0.0
    report.append("tracing overhead (paired phases, same query stream): "
                  "req_p50_ms %s %%" % " ".join("%+.1f" % o for o in overhead))

    scopes = profile_scopes(os.path.join(tmp, out["profile"]))
    metrics, sim_report = ledger(scopes, out["profile_units"],
                                 scopes.get("campaign.unit", {})
                                 .get("total_us", 0.0))
    report.append("per-unit simulation mix of the served fresh units "
                  "(replayed under the profiler):")
    report += ["  " + line for line in sim_report[:-1]]
    metrics.update({
        "ledger.unattributed_pct":
            100.0 * structure_ms / call_ms if call_ms else 0.0,
        "ledger.coverage_err_pct": coverage_err,
        "solar.trace_gen_us_per_unit": out["trace_gen_us_per_unit"],
        "campaign.unit_ms_p50": q("unit:miss", 0.5),
        "campaign.unit_ms_p99": q("unit:miss", 0.99),
        "serve.queue_wait_ms_p50": q("queue.wait", 0.5),
        "serve.queue_wait_ms_p99": q("queue.wait", 0.99),
        "serve.service_ms_p50": q("service", 0.5),
        "serve.service_ms_p99": q("service", 0.99),
        "serve.unit_sim_ms_p50": q("unit:miss", 0.5),
        "serve.aggregate_us_p50": q("aggregate", 0.5) * 1e3,
        "serve.result_cache_hit_pct":
            100.0 * hits / (hits + misses) if hits + misses else 0.0,
        "serve.unit_cache_hit_pct":
            100.0 * uhits / (uhits + umiss) if uhits + umiss else 0.0,
        "serve.shed": float(sum(p["snapshot"]["shed_capacity"] +
                                p["snapshot"]["shed_deadline"] +
                                p["snapshot"]["expired"] for p in traced)),
        "serve.gen_late_ms_p99":
            quantile([s[2] for s in timed.values()], 0.99),
        "trace.overhead_pct": ov_med,
    })
    return metrics, report


# ----------------------------------------------------------------------

def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one site x one month grids (self-tests)")
    ap.add_argument("--corrupt-ref", action="store_true",
                    help="corrupt the references (self-tests)")
    args = ap.parse_args()

    load_start = os.getloadavg()[0]
    driver, build_type = build()
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    tmp = os.path.join(ROOT, ".bench_tmp",
                       "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(tmp)
    try:
        extra = ["--tiny"] if args.tiny else []
        setup_s, setup_samples, setup_launched = setup_seconds(
            driver, args.workload, args.seed, tmp, deadline, extra)
        if args.corrupt_ref:
            extra.append("--corrupt-ref")
        cmd = ["run", "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--tmp=" + tmp, "--ref-dir=" + os.path.join(HERE, "ref")]
        out = run_driver(driver, cmd + extra, deadline, tmp)
        campaign = args.workload != "serve-plan"

        if args.trace == 0:
            e2e, report = (campaign_e2e(args.workload, out) if campaign
                           else serve_e2e(out))
            if campaign:
                report += campaign_checks(out)
            e2e["setup_s"] = (setup_s, "s")
            e2e["peak_rss_mb"] = ((out["rss_self_kb"] +
                                   out["rss_children_kb"]) / 1024.0, "MB")
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in e2e.items()}
        else:
            values, report = (campaign_layers(out, tmp)
                              if campaign else serve_layers(out, tmp))
            metrics = {}
            for name, unit in per_layer_names():
                # Layers a workload does not exercise report 0 (README.md).
                metrics[name] = {"value": float(values.get(name, 0.0)),
                                 "unit": unit}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    describe = git_describe()
    host = {
        "nproc": host_cpus(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "build_type": build_type,
        "pv_kernel": out["kernel"],
        "git_describe": describe,
        "git_dirty": describe.endswith("-dirty"),
        "setup_probes_s": setup_samples,
        "setup_probes_from_launch_s": setup_launched,
    }
    for line in report:
        print(line)
    for f in out["failures"]:
        print("failed: " + f)
    print("host: " + json.dumps(host, sort_keys=True))
    for name in sorted(metrics):
        print("%-32s %14.6g %s" % (name, metrics[name]["value"],
                                   metrics[name]["unit"]))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
