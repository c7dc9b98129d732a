#include "fixed_power.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/profiler.hpp"
#include "util/logging.hpp"

namespace solarcore::core {

namespace {

/** One selectable state of a core: gated or a DVFS level. */
struct Choice
{
    cpu::MultiCoreChip::CoreSetting setting;
    double powerW = 0.0;
    double throughput = 0.0;
};

/** How many choices each core of @p chip has. */
std::size_t
choicesPerCore(const cpu::MultiCoreChip &chip)
{
    return static_cast<std::size_t>(chip.dvfs().numLevels()) +
        (chip.gatingAllowed() ? 1 : 0);
}

/**
 * Every core's choices, core-major: for each core, gated (only when
 * the chip allows PCPG), then every DVFS level ascending.
 */
std::vector<Choice>
chipChoices(const cpu::MultiCoreChip &chip)
{
    const auto &table = chip.dvfs();
    std::vector<Choice> out;
    out.reserve(static_cast<std::size_t>(chip.numCores()) *
                choicesPerCore(chip));
    for (int i = 0; i < chip.numCores(); ++i) {
        const cpu::Core &c = chip.core(i);
        if (chip.gatingAllowed())
            out.push_back({{table.minLevel(), true},
                           chip.powerModel().gatedPower().totalW(),
                           0.0});
        for (int l = table.minLevel(); l <= table.maxLevel(); ++l)
            out.push_back(
                {{l, false}, c.powerAtLevel(l), c.throughputAtLevel(l)});
    }
    return out;
}

/**
 * One state of a core layer's Pareto frontier: the cores processed so
 * far consume @c units grid units and deliver @c throughput, reached
 * from state @c from of the previous layer through choice @c choice.
 */
struct State
{
    int units = 0;
    int from = -1;
    int choice = -1;
    double throughput = 0.0;
};

/** Best relaxation into one unit cell of the next layer. */
struct Cell
{
    double throughput;
    int from;
    int choice;
};

} // namespace

AllocationResult
optimizeAllocation(const cpu::MultiCoreChip &chip, double budget_w,
                   double power_res_w)
{
    SC_ASSERT(power_res_w > 0.0, "optimizeAllocation: bad resolution");
    SC_PROFILE_SCOPE("alloc.optimize");
    AllocationResult res;
    if (!(budget_w > 0.0))
        return res;
    const double budget_units = std::floor(budget_w / power_res_w);
    if (budget_units < 1.0)
        return res;

    const int n = chip.numCores();
    const std::size_t k = choicesPerCore(chip);
    const std::vector<Choice> choices = chipChoices(chip);
    // Each choice's power in grid units, rounded up so the grid never
    // under-counts; computed once, not per relaxation.
    std::vector<int> costs(choices.size());
    std::vector<int> min_cost(static_cast<std::size_t>(n));
    std::vector<int> max_cost(static_cast<std::size_t>(n));
    double reach = 0.0; // units the chip can reach at all
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
        double bottom = std::numeric_limits<double>::infinity();
        double top = 0.0;
        for (std::size_t j = i * k; j < (i + 1) * k; ++j) {
            const double cost =
                std::ceil(choices[j].powerW / power_res_w - 1e-12);
            SC_ASSERT(reach + cost < std::numeric_limits<int>::max(),
                      "optimizeAllocation: resolution too fine");
            bottom = std::min(bottom, cost);
            top = std::max(top, cost);
            costs[j] = static_cast<int>(cost);
        }
        reach += top;
        min_cost[i] = static_cast<int>(bottom);
        max_cost[i] = static_cast<int>(top);
    }
    // No state costs more than the chip can reach, so a budget beyond
    // that changes nothing but the scratch size.
    const int limit = static_cast<int>(std::min(budget_units, reach));

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();

    // Layer i of the frontier holds, by ascending units, the states of
    // cores 0..i-1 whose throughput strictly beats every cheaper
    // state's. A dominated state can neither lie on the dense DP's
    // chosen path nor supply the winning value at a state on it (FP
    // addition is monotone), so relaxing only the frontier -- in the
    // dense order: ascending units, ascending choice, strict '>' --
    // reproduces the dense DP bit for bit.
    std::vector<State> states{State{}};
    std::vector<Cell> next(static_cast<std::size_t>(limit) + 1,
                           Cell{kNegInf, -1, -1});
    std::size_t layer_begin = 0;
    for (int i = 0; i < n; ++i) {
        const std::size_t layer_end = states.size();
        const std::size_t base = static_cast<std::size_t>(i) * k;
        for (std::size_t s = layer_begin; s < layer_end; ++s) {
            const State src = states[s];
            for (std::size_t c = 0; c < k; ++c) {
                const int u2 = src.units + costs[base + c];
                if (u2 > limit)
                    continue;
                const double t =
                    src.throughput + choices[base + c].throughput;
                Cell &cell = next[static_cast<std::size_t>(u2)];
                if (t > cell.throughput)
                    cell = {t, static_cast<int>(s), static_cast<int>(c)};
            }
        }
        // Sources ascend in units, so these bound every cell touched.
        const auto ci = static_cast<std::size_t>(i);
        const int lo = states[layer_begin].units + min_cost[ci];
        const int hi =
            std::min(limit, states[layer_end - 1].units + max_cost[ci]);
        double best = kNegInf;
        for (int u = lo; u <= hi; ++u) {
            Cell &cell = next[static_cast<std::size_t>(u)];
            if (cell.throughput > best) {
                best = cell.throughput;
                states.push_back({u, cell.from, cell.choice, best});
            }
            cell.throughput = kNegInf;
        }
        if (states.size() == layer_end)
            return res; // even the cheapest choices do not fit
        layer_begin = layer_end;
    }

    // The last state of the final layer is the dense DP's best end
    // state; walk its back-pointers from core n-1 down to core 0.
    res.settings.resize(static_cast<std::size_t>(n));
    std::size_t s = states.size() - 1;
    for (int i = n - 1; i >= 0; --i) {
        const State &st = states[s];
        const Choice &ch = choices[static_cast<std::size_t>(i) * k +
                                   static_cast<std::size_t>(st.choice)];
        res.settings[static_cast<std::size_t>(i)] = ch.setting;
        res.powerW += ch.powerW;
        res.throughput += ch.throughput;
        s = static_cast<std::size_t>(st.from);
    }
    res.feasible = true;
    return res;
}

AllocationResult
bruteForceAllocation(const cpu::MultiCoreChip &chip, double budget_w)
{
    AllocationResult best;
    const std::size_t n = static_cast<std::size_t>(chip.numCores());
    const std::size_t k = choicesPerCore(chip);
    const std::vector<Choice> choices = chipChoices(chip);

    // pick[i]: core i's choice; counts up like an odometer.
    std::vector<std::size_t> pick(n, 0);
    while (true) {
        double p = 0.0;
        double t = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &ch = choices[i * k + pick[i]];
            p += ch.powerW;
            t += ch.throughput;
        }
        if (p <= budget_w && (!best.feasible || t > best.throughput)) {
            best.feasible = true;
            best.powerW = p;
            best.throughput = t;
            best.settings.clear();
            for (std::size_t i = 0; i < n; ++i)
                best.settings.push_back(choices[i * k + pick[i]].setting);
        }
        std::size_t i = 0;
        for (; i < n; ++i) {
            if (++pick[i] < k)
                break;
            pick[i] = 0;
        }
        if (i == n)
            break;
    }
    return best;
}

void
applyAllocation(cpu::MultiCoreChip &chip, const AllocationResult &alloc)
{
    SC_ASSERT(alloc.feasible, "applyAllocation: infeasible allocation");
    chip.applySettings(alloc.settings);
}

} // namespace solarcore::core
