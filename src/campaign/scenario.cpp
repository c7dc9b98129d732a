#include "scenario.hpp"

#include <cmath>
#include <sstream>

#include "util/logging.hpp"

namespace solarcore::campaign {

namespace {

/** Split a comma list into non-empty tokens. */
std::vector<std::string>
splitList(std::string_view text)
{
    std::vector<std::string> tokens;
    std::string token;
    std::istringstream is{std::string(text)};
    while (std::getline(is, token, ',')) {
        if (!token.empty())
            tokens.push_back(token);
    }
    return tokens;
}

template <typename T, typename Name>
bool
parseTokens(std::string_view text, std::vector<T> &out,
            const std::vector<T> &all, Name name)
{
    const auto tokens = splitList(text);
    if (tokens.empty())
        return false;
    std::vector<T> parsed;
    for (const auto &token : tokens) {
        bool found = false;
        for (const T value : all) {
            if (token == name(value)) {
                parsed.push_back(value);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    out = std::move(parsed);
    return true;
}

const std::vector<CampaignPolicy> &
allPolicies()
{
    static const std::vector<CampaignPolicy> all = {
        CampaignPolicy::MpptOpt,     CampaignPolicy::MpptRr,
        CampaignPolicy::MpptIc,      CampaignPolicy::MpptIcMotion,
        CampaignPolicy::FixedPower,  CampaignPolicy::Battery,
    };
    return all;
}

} // namespace

const char *
campaignPolicyToken(CampaignPolicy policy)
{
    switch (policy) {
      case CampaignPolicy::MpptOpt:      return "opt";
      case CampaignPolicy::MpptRr:       return "rr";
      case CampaignPolicy::MpptIc:       return "ic";
      case CampaignPolicy::MpptIcMotion: return "icm";
      case CampaignPolicy::FixedPower:   return "fixed";
      case CampaignPolicy::Battery:      return "battery";
    }
    SC_PANIC("campaignPolicyToken: bad policy");
    return "?";
}

core::PolicyKind
toSimPolicy(CampaignPolicy policy)
{
    switch (policy) {
      case CampaignPolicy::MpptOpt:      return core::PolicyKind::MpptOpt;
      case CampaignPolicy::MpptRr:       return core::PolicyKind::MpptRr;
      case CampaignPolicy::MpptIc:       return core::PolicyKind::MpptIc;
      case CampaignPolicy::MpptIcMotion:
        return core::PolicyKind::MpptIcMotion;
      case CampaignPolicy::FixedPower:
        return core::PolicyKind::FixedPower;
      case CampaignPolicy::Battery:
        break;
    }
    SC_PANIC("toSimPolicy: the battery baseline has no SimConfig policy");
    return core::PolicyKind::FixedPower;
}

std::vector<ScenarioUnit>
expandGrid(const ScenarioGrid &grid)
{
    std::vector<ScenarioUnit> units;
    units.reserve(grid.unitCount());
    int index = 0;
    for (const auto site : grid.sites)
        for (const auto month : grid.months)
            for (const auto policy : grid.policies)
                for (const auto wl : grid.workloads)
                    for (const auto seed : grid.seeds)
                        units.push_back(
                            {index++, site, month, policy, wl, seed});
    return units;
}

std::string
unitKey(const ScenarioUnit &unit)
{
    std::string key = solar::siteName(unit.site);
    key += '-';
    key += solar::monthName(unit.month);
    key += '-';
    key += campaignPolicyToken(unit.policy);
    key += '-';
    key += workload::workloadName(unit.workload);
    key += "-s";
    key += std::to_string(unit.seed);
    return key;
}

std::string
validateGrid(const ScenarioGrid &grid)
{
    if (grid.sites.empty() || grid.months.empty() ||
        grid.policies.empty() || grid.workloads.empty() ||
        grid.seeds.empty())
        return "empty scenario axis";
    if (!std::isfinite(grid.dtSeconds) || grid.dtSeconds <= 0.0)
        return "dtSeconds must be positive and finite";
    if (!std::isfinite(grid.fixedBudgetW) || grid.fixedBudgetW <= 0.0)
        return "fixedBudgetW must be positive and finite";
    if (!std::isfinite(grid.batteryDerating) ||
        grid.batteryDerating <= 0.0 || grid.batteryDerating > 1.0)
        return "batteryDerating must be in (0, 1]";
    if (!std::isfinite(grid.trackingPeriodMinutes) ||
        grid.trackingPeriodMinutes <= 0.0)
        return "trackingPeriodMinutes must be positive and finite";
    return {};
}

std::string
gridSignature(const ScenarioGrid &grid)
{
    std::ostringstream os;
    os << "v1";
    os << " sites=";
    for (const auto s : grid.sites)
        os << solar::siteName(s) << ',';
    os << " months=";
    for (const auto m : grid.months)
        os << solar::monthName(m) << ',';
    os << " policies=";
    for (const auto p : grid.policies)
        os << campaignPolicyToken(p) << ',';
    os << " workloads=";
    for (const auto w : grid.workloads)
        os << workload::workloadName(w) << ',';
    os << " seeds=";
    for (const auto s : grid.seeds)
        os << s << ',';
    os << " dt=" << grid.dtSeconds << " budget=" << grid.fixedBudgetW
       << " derating=" << grid.batteryDerating
       << " period=" << grid.trackingPeriodMinutes
       << " pvkernel=" << grid.pvKernel;
    return os.str();
}

bool
parseSiteList(std::string_view text, std::vector<solar::SiteId> &out)
{
    const auto arr = solar::allSites();
    return parseTokens(text, out,
                       std::vector<solar::SiteId>(arr.begin(), arr.end()),
                       solar::siteName);
}

bool
parseMonthList(std::string_view text, std::vector<solar::Month> &out)
{
    const auto arr = solar::allMonths();
    return parseTokens(text, out,
                       std::vector<solar::Month>(arr.begin(), arr.end()),
                       solar::monthName);
}

bool
parsePolicyList(std::string_view text, std::vector<CampaignPolicy> &out)
{
    return parseTokens(text, out, allPolicies(), campaignPolicyToken);
}

bool
parseWorkloadList(std::string_view text,
                  std::vector<workload::WorkloadId> &out)
{
    const auto arr = workload::allWorkloads();
    return parseTokens(
        text, out,
        std::vector<workload::WorkloadId>(arr.begin(), arr.end()),
        workload::workloadName);
}

bool
parseSeedList(std::string_view text, std::vector<std::uint64_t> &out)
{
    const auto tokens = splitList(text);
    if (tokens.empty())
        return false;
    std::vector<std::uint64_t> parsed;
    for (const auto &token : tokens) {
        try {
            std::size_t used = 0;
            parsed.push_back(std::stoull(token, &used));
            if (used != token.size())
                return false;
        } catch (...) {
            return false;
        }
    }
    out = std::move(parsed);
    return true;
}

bool
applyPreset(std::string_view name, ScenarioGrid &grid)
{
    using solar::Month;
    using solar::SiteId;
    using workload::WorkloadId;
    ScenarioGrid g;
    if (name == "smoke") {
        g.sites = {SiteId::AZ, SiteId::NC};
        g.months = {Month::Jan, Month::Jul};
        g.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::FixedPower};
        g.workloads = {WorkloadId::HM2};
        g.seeds = {1};
        g.dtSeconds = 120.0;
    } else if (name == "fig13" || name == "fig14") {
        g.sites = {SiteId::AZ};
        g.months = {name == "fig13" ? Month::Jan : Month::Jul};
        g.policies = {CampaignPolicy::MpptOpt};
        g.workloads = {WorkloadId::H1, WorkloadId::HM2, WorkloadId::L1};
        g.seeds = {1};
        g.dtSeconds = 15.0;
    } else if (name == "full") {
        const auto sites = solar::allSites();
        const auto months = solar::allMonths();
        g.sites.assign(sites.begin(), sites.end());
        g.months.assign(months.begin(), months.end());
        g.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::MpptRr,
                      CampaignPolicy::MpptIc, CampaignPolicy::FixedPower,
                      CampaignPolicy::Battery};
        g.workloads = {WorkloadId::H1, WorkloadId::HM2, WorkloadId::L1};
        g.seeds = {1};
        g.dtSeconds = 30.0;
    } else {
        return false;
    }
    // The kernel choice is orthogonal to the preset axes: keep
    // whatever --pv-kernel already selected, regardless of option
    // order on the command line.
    g.pvKernel = grid.pvKernel;
    grid = g;
    return true;
}

} // namespace solarcore::campaign
