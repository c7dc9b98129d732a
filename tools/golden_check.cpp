/**
 * @file
 * golden_check: diff a freshly produced summary JSON against a
 * checked-in golden baseline under per-field tolerances, or adopt the
 * candidate as the new baseline.
 *
 *   golden_check --check  tests/golden/smoke_campaign.json smoke.json
 *   golden_check --update tests/golden/smoke_campaign.json smoke.json
 *
 * --check exits 1 (listing every drifted field) when any number moves
 * beyond tolerance, any string changes, or any path appears/vanishes.
 * --update rewrites the baseline with the candidate's bytes -- do this
 * only for intentional behaviour changes, and say why in the commit.
 *
 * Tolerances: numbers pass when |g - c| <= atol + rtol * |g|.
 *   --rtol=R --atol=A            defaults (5e-4 / 1e-9)
 *   --tol=PATTERN:R[:A]          override for paths containing PATTERN
 *   --ignore=PATTERN             skip paths containing PATTERN
 * Event-count fields (retracks, transfers, controllerSteps,
 * thermalThrottles) default to a looser rtol=0.05/atol=2 override:
 * a single extra re-track on another libm is noise, a 10% jump is a
 * regression. Pass your own --tol to tighten.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "campaign/golden.hpp"
#include "util/parse_number.hpp"

using namespace solarcore;

namespace {

[[noreturn]] void
usage(const char *complaint = nullptr)
{
    if (complaint)
        std::cerr << "golden_check: " << complaint << "\n";
    std::cerr << "usage: golden_check --check|--update GOLDEN CANDIDATE\n"
                 "  [--rtol=R] [--atol=A] [--tol=PATTERN:R[:A]]\n"
                 "  [--ignore=PATTERN] [--max-report=N]\n";
    std::exit(2);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
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

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool update = false;
    std::string golden_path;
    std::string candidate_path;
    campaign::ToleranceSpec tolerances;
    // Event counters jitter by a step or two across libm/FMA variants;
    // placed first so explicit --tol overrides (prepended below) win.
    for (const char *counter :
         {"retracks", "transfers", "controllerSteps", "thermalThrottles"})
        tolerances.overrides.push_back({counter, {0.05, 2.0}});
    std::size_t max_report = 20;

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (arg == "--check") {
            check = true;
        } else if (arg == "--update") {
            update = true;
        } else if (key == "--rtol") {
            tolerances.fallback.rtol = numberFlag<double>(key, value);
        } else if (key == "--atol") {
            tolerances.fallback.atol = numberFlag<double>(key, value);
        } else if (key == "--tol") {
            const auto c1 = value.find(':');
            if (c1 == std::string::npos || c1 == 0)
                usage("--tol needs PATTERN:RTOL[:ATOL]");
            const auto c2 = value.find(':', c1 + 1);
            campaign::Tolerance tol;
            tol.rtol = numberFlag<double>(
                key, value.substr(c1 + 1,
                                  c2 == std::string::npos
                                      ? std::string::npos
                                      : c2 - c1 - 1));
            if (c2 != std::string::npos)
                tol.atol = numberFlag<double>(key, value.substr(c2 + 1));
            tolerances.overrides.insert(
                tolerances.overrides.begin(),
                {value.substr(0, c1), tol});
        } else if (key == "--ignore") {
            if (value.empty())
                usage("--ignore needs a pattern");
            tolerances.ignored.push_back(value);
        } else if (key == "--max-report") {
            max_report = numberFlag<std::size_t>(key, value);
        } else if (arg.rfind("--", 0) == 0) {
            usage(("unknown option " + arg).c_str());
        } else {
            positional.push_back(arg);
        }
    }
    if (check == update)
        usage("pick exactly one of --check / --update");
    if (positional.size() != 2)
        usage("need GOLDEN and CANDIDATE paths");
    golden_path = positional[0];
    candidate_path = positional[1];

    std::string candidate_text;
    if (!readFile(candidate_path, candidate_text)) {
        std::cerr << "golden_check: cannot read candidate '"
                  << candidate_path << "'\n";
        return 2;
    }
    campaign::FlatJson candidate;
    std::string error;
    if (!campaign::parseJsonFlat(candidate_text, candidate, error)) {
        std::cerr << "golden_check: candidate '" << candidate_path
                  << "': " << error << "\n";
        return 2;
    }

    if (update) {
        std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::cerr << "golden_check: cannot write baseline '"
                      << golden_path << "'\n";
            return 2;
        }
        out << candidate_text;
        std::cout << "golden_check: baseline " << golden_path
                  << " updated (" << candidate.size() << " fields)\n";
        return 0;
    }

    std::string golden_text;
    if (!readFile(golden_path, golden_text)) {
        std::cerr << "golden_check: cannot read baseline '" << golden_path
                  << "' (generate it with --update)\n";
        return 2;
    }
    campaign::FlatJson golden;
    if (!campaign::parseJsonFlat(golden_text, golden, error)) {
        std::cerr << "golden_check: baseline '" << golden_path
                  << "': " << error << "\n";
        return 2;
    }

    const auto diffs = campaign::compareFlat(golden, candidate, tolerances);
    if (diffs.empty()) {
        std::cout << "golden_check: OK (" << golden.size()
                  << " fields within tolerance)\n";
        return 0;
    }
    std::cerr << "golden_check: " << diffs.size() << " field(s) drifted "
              << "from " << golden_path << ":\n";
    std::size_t shown = 0;
    for (const auto &diff : diffs) {
        if (shown++ >= max_report) {
            std::cerr << "  ... and " << diffs.size() - max_report
                      << " more\n";
            break;
        }
        switch (diff.kind) {
          case campaign::GoldenDiff::Kind::MissingInCandidate:
            std::cerr << "  - " << diff.path << ": missing (golden "
                      << diff.golden << ")\n";
            break;
          case campaign::GoldenDiff::Kind::ExtraInCandidate:
            std::cerr << "  + " << diff.path << ": unexpected "
                      << diff.candidate << "\n";
            break;
          case campaign::GoldenDiff::Kind::Mismatch:
            std::cerr << "  ~ " << diff.path << ": golden " << diff.golden
                      << " vs " << diff.candidate;
            if (diff.absError > 0.0)
                std::cerr << " (abs " << diff.absError << ", rel "
                          << diff.relError << ")";
            std::cerr << "\n";
            break;
        }
    }
    return 1;
}
