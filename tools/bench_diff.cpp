/**
 * @file
 * bench_diff: the perf-history regression gate.
 *
 * `bench/run_microbench.sh --append-history` appends one JSONL entry
 * per BENCH_*.json to bench/history/<name>.jsonl:
 *
 *   {"schema":"solarcore-bench-history-v1","utc":...,"build_type":...,
 *    "git":...,"source":"BENCH_pv.json","metrics":{"BM_...": ns, ...}}
 *
 * bench_diff compares the LATEST history entry of each file against
 * the committed BENCH_*.json baseline at the repo root, under
 * per-metric relative tolerances. Time-like metrics (benchmark
 * real_time) regress when they grow; throughput-like metrics
 * (*units_per_second*, *speedup*) regress when they shrink.
 *
 *   bench_diff                         # every .jsonl in bench/history
 *   bench_diff --rtol=0.3              # loosen the default tolerance
 *   bench_diff --tol=speedup:0.5       # per-metric override (substring)
 *   bench_diff --history-dir=D --baseline-dir=D2
 *
 * Exit 0 when everything is within tolerance (improvements included),
 * 1 on regression, 2 on usage/IO problems. Microbenchmark numbers on
 * shared machines jitter, so the default tolerance is deliberately
 * loose (25%) and CI treats this gate as advisory (non-blocking) --
 * its job is to flag order-of-magnitude cliffs, not 5% noise.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/golden.hpp"
#include "util/parse_number.hpp"

using namespace solarcore;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "bench_diff: " << complaint << "\n";
    std::cerr << "usage: bench_diff [--history-dir=bench/history]\n"
                 "  [--baseline-dir=.] [--rtol=0.25] "
                 "[--tol=SUBSTRING:RTOL ...]\n";
    std::exit(2);
}

using Metrics = std::map<std::string, double>;

/**
 * Extract the comparable metric set from a flattened benchmark
 * document -- the same rule the history appender uses: google-
 * benchmark files contribute name -> real_time of plain iteration
 * rows; flat documents (BENCH_campaign.json) contribute every
 * top-level number.
 */
Metrics
extractMetrics(const campaign::FlatJson &doc)
{
    Metrics out;
    bool isBenchmarkFile = false;
    for (std::size_t i = 0;; ++i) {
        const std::string prefix = "benchmarks." + std::to_string(i);
        const auto name = doc.find(prefix + ".name");
        if (name == doc.end())
            break;
        isBenchmarkFile = true;
        const auto runType = doc.find(prefix + ".run_type");
        if (runType != doc.end() && runType->second.text != "iteration")
            continue;
        const auto time = doc.find(prefix + ".real_time");
        if (time != doc.end()) // first occurrence wins (repetitions)
            out.emplace(name->second.text, time->second.number);
    }
    if (!isBenchmarkFile) {
        for (const auto &[path, leaf] : doc) {
            if (leaf.kind == campaign::JsonLeaf::Kind::Number &&
                path.find('.') == std::string::npos)
                out[path] = leaf.number;
        }
    }
    return out;
}

bool
loadFlat(const fs::path &path, campaign::FlatJson &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::stringstream ss;
    ss << is.rdbuf();
    std::string error;
    if (!campaign::parseJsonFlat(ss.str(), out, error)) {
        std::cerr << "bench_diff: " << path.string() << ": " << error
                  << "\n";
        return false;
    }
    return true;
}

/** The last non-empty line of a JSONL file. */
bool
lastLine(const fs::path &path, std::string &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    out.clear();
    while (std::getline(is, line))
        if (!line.empty())
            out = line;
    return !out.empty();
}

bool
higherIsBetter(const std::string &metric)
{
    return metric.find("per_second") != std::string::npos ||
        metric.find("speedup") != std::string::npos;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path history_dir = "bench/history";
    fs::path baseline_dir = ".";
    double rtol = 0.25;
    std::vector<std::pair<std::string, double>> overrides;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--history-dir") {
            history_dir = value;
        } else if (key == "--baseline-dir") {
            baseline_dir = value;
        } else if (key == "--rtol") {
            const auto r = util::parseNumber<double>(value);
            if (!r || !(*r > 0))
                usage("--rtol must be positive");
            rtol = *r;
        } else if (key == "--tol") {
            const auto colon = value.rfind(':');
            if (colon == std::string::npos)
                usage("--tol wants SUBSTRING:RTOL");
            const auto r = util::parseNumber<double>(
                std::string_view(value).substr(colon + 1));
            if (!r || !(*r > 0))
                usage("--tol tolerance must be positive");
            overrides.emplace_back(value.substr(0, colon), *r);
        } else {
            usage(("unknown option " + key).c_str());
        }
    }

    if (!fs::is_directory(history_dir)) {
        std::cerr << "bench_diff: no history at "
                  << history_dir.string()
                  << " (run bench/run_microbench.sh --append-history "
                     "first)\n";
        return 2;
    }

    std::vector<fs::path> histories;
    for (const auto &entry : fs::directory_iterator(history_dir))
        if (entry.path().extension() == ".jsonl")
            histories.push_back(entry.path());
    std::sort(histories.begin(), histories.end());
    if (histories.empty()) {
        std::cerr << "bench_diff: " << history_dir.string()
                  << " holds no .jsonl files\n";
        return 2;
    }

    auto tolFor = [&](const std::string &metric) {
        for (const auto &[substr, r] : overrides)
            if (metric.find(substr) != std::string::npos)
                return r;
        return rtol;
    };

    int regressions = 0;
    int compared = 0;
    for (const auto &hist : histories) {
        std::string line;
        if (!lastLine(hist, line)) {
            std::cerr << "bench_diff: " << hist.string()
                      << ": empty history\n";
            return 2;
        }
        campaign::FlatJson entry;
        std::string error;
        if (!campaign::parseJsonFlat(line, entry, error)) {
            std::cerr << "bench_diff: " << hist.string() << ": "
                      << error << "\n";
            return 2;
        }
        Metrics latest;
        for (const auto &[path, leaf] : entry) {
            if (path.rfind("metrics.", 0) == 0 &&
                leaf.kind == campaign::JsonLeaf::Kind::Number)
                latest[path.substr(8)] = leaf.number;
        }
        const auto src = entry.find("source");
        const fs::path baseline_path = baseline_dir /
            (src != entry.end() ? src->second.text
                                : hist.stem().string() + ".json");
        campaign::FlatJson baseline_doc;
        if (!loadFlat(baseline_path, baseline_doc)) {
            std::cerr << "bench_diff: missing baseline "
                      << baseline_path.string() << "\n";
            return 2;
        }
        const Metrics baseline = extractMetrics(baseline_doc);

        for (const auto &[metric, value] : latest) {
            const auto it = baseline.find(metric);
            if (it == baseline.end())
                continue; // new metric: nothing to gate against
            const double base = it->second;
            if (base == 0.0)
                continue;
            const double delta = (value - base) / base;
            const bool better = higherIsBetter(metric);
            const double tol = tolFor(metric);
            const bool regressed =
                better ? delta < -tol : delta > tol;
            ++compared;
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%+7.1f%%", delta * 100.0);
            std::cout << (regressed ? "REGRESSED " : "ok        ")
                      << buf << "  " << metric << "  (" << value
                      << " vs " << base << ", "
                      << (better ? "higher" : "lower")
                      << " is better, rtol " << tol << ")\n";
            regressions += regressed;
        }
    }

    if (compared == 0) {
        std::cerr << "bench_diff: no overlapping metrics to compare\n";
        return 2;
    }
    if (regressions > 0) {
        std::cerr << "bench_diff: " << regressions << " of " << compared
                  << " metrics regressed\n";
        return 1;
    }
    std::cout << "bench_diff: " << compared
              << " metrics within tolerance\n";
    return 0;
}
