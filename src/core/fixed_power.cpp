#include "fixed_power.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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
 * Fill @p out with every core's choices, core-major: for each core,
 * gated (only when the chip allows PCPG), then every DVFS level
 * ascending.
 */
void
chipChoices(const cpu::MultiCoreChip &chip, std::vector<Choice> &out)
{
    const auto &table = chip.dvfs();
    out.clear();
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

/**
 * One segment of a core's upper concave hull over its (cost units,
 * throughput) choices: moving core @c core from one hull vertex to the
 * next costs @c units more, gains @c gain, and ends at its choice
 * @c to.
 */
struct Segment
{
    double slope = 0.0;
    double gain = 0.0;
    int units = 0;
    int core = 0;
    int to = 0;
};

/** A call's working arrays, kept per thread so that a warm call
 *  allocates nothing but its result. */
struct Scratch
{
    std::vector<Choice> choices;
    std::vector<int> costs;
    std::vector<int> minCost;  //!< per core: its cheapest cost
    std::vector<int> maxCost;  //!< per core: its dearest cost
    std::vector<int> order;    //!< one core's choices by cost
    std::vector<int> hull;     //!< one core's hull vertices
    std::vector<Segment> segments;     //!< core by core
    std::vector<std::size_t> runBegin; //!< core i's at [runBegin[i], ..)
    std::vector<Segment> bySlope;      //!< all of them, by falling slope
    std::vector<std::size_t> head;     //!< the merge's next per core
    std::vector<double> headSlope;
    std::vector<int> restUnits;   //!< per layer: cores i.. at base cost
    std::vector<double> restBase; //!< per layer: their base throughput
    std::vector<int> lbChoice;
    std::vector<char> lbStopped;
    // Layer i's LP row (i >= 1) at [rowBegin[i], rowBegin[i + 1]):
    // entry m holds the cost and gain of the first m segments of cores
    // i..n-1 by slope, and segment m+1's slope (0 past the last).
    std::vector<std::size_t> rowBegin;
    std::vector<int> rowUnits;
    std::vector<double> rowGain;
    std::vector<double> rowSlope;
    std::vector<std::size_t> rowEnd; //!< per layer: next entry to fill
    std::vector<State> states;       //!< entries past the count are spare
    std::vector<Cell> next;              //!< all -inf between calls
    std::vector<std::uint64_t> touched;  //!< next's written cells; all
                                         //!< 0 between calls
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/**
 * Append core @p i's upper-hull segments to @p s.segments and return
 * its base choice: the cheapest, with the best throughput among
 * choices of equal cost. Only the hull's rising part is kept; a
 * segment that gains nothing never raises the LP bound. Its slopes
 * fall strictly along the hull.
 */
int
addHullSegments(Scratch &s, int i, std::size_t k)
{
    const std::size_t base = static_cast<std::size_t>(i) * k;
    const int *cost = &s.costs[base];
    const Choice *ch = &s.choices[base];
    // Insertion sort: the choices mostly come in cost order already.
    auto before = [&](int a, int b) {
        if (cost[a] != cost[b])
            return cost[a] < cost[b];
        if (ch[a].throughput != ch[b].throughput)
            return ch[a].throughput > ch[b].throughput;
        return a < b;
    };
    s.order.resize(k);
    for (std::size_t c = 0; c < k; ++c) {
        std::size_t j = c;
        for (; j > 0 && before(static_cast<int>(c), s.order[j - 1]); --j)
            s.order[j] = s.order[j - 1];
        s.order[j] = static_cast<int>(c);
    }
    auto slope = [&](int a, int b) {
        return (ch[b].throughput - ch[a].throughput) /
            static_cast<double>(cost[b] - cost[a]);
    };
    s.hull.assign(1, s.order[0]);
    for (std::size_t m = 1; m < k; ++m) {
        const int c = s.order[m];
        if (cost[c] == cost[s.order[m - 1]] ||
            ch[c].throughput <= ch[s.hull.back()].throughput)
            continue; // a better choice of equal cost came first, or
                      // no gain over the hull's top so far
        while (s.hull.size() >= 2 &&
               slope(s.hull[s.hull.size() - 2], s.hull.back()) <=
                   slope(s.hull.back(), c))
            s.hull.pop_back();
        s.hull.push_back(c);
    }
    for (std::size_t h = 1; h < s.hull.size(); ++h) {
        const int a = s.hull[h - 1];
        const int b = s.hull[h];
        s.segments.push_back({slope(a, b),
                              ch[b].throughput - ch[a].throughput,
                              cost[b] - cost[a], i, b});
    }
    return s.order[0];
}

/**
 * Merge the @p n cores' hull segments into @p s.bySlope by falling
 * slope, the lowest core first among equal slopes, and fill the LP
 * row of every layer i >= 1: a segment of core c extends rows 1..c.
 */
void
mergeBySlope(Scratch &s, std::size_t n)
{
    const std::size_t total = s.segments.size();
    s.rowBegin.assign(n + 1, 0);
    for (std::size_t i = 1; i < n; ++i)
        s.rowBegin[i + 1] = s.rowBegin[i] + total - s.runBegin[i] + 1;
    s.rowUnits.resize(s.rowBegin[n]);
    s.rowGain.resize(s.rowBegin[n]);
    s.rowSlope.resize(s.rowBegin[n]);
    s.rowEnd.assign(s.rowBegin.begin(), s.rowBegin.end() - 1);
    for (std::size_t i = 1; i < n; ++i) {
        s.rowUnits[s.rowBegin[i]] = 0;
        s.rowGain[s.rowBegin[i]] = 0.0;
    }

    s.head.assign(s.runBegin.begin(), s.runBegin.end() - 1);
    s.headSlope.resize(n);
    auto slopeAt = [&s](std::size_t i) {
        return s.head[i] < s.runBegin[i + 1] ? s.segments[s.head[i]].slope
                                             : -1.0; // run done
    };
    for (std::size_t i = 0; i < n; ++i)
        s.headSlope[i] = slopeAt(i);
    s.bySlope.clear();
    for (std::size_t m = 0; m < total; ++m) {
        std::size_t top = 0;
        for (std::size_t i = 1; i < n; ++i)
            top = s.headSlope[i] > s.headSlope[top] ? i : top;
        const Segment &seg = s.segments[s.head[top]++];
        s.headSlope[top] = slopeAt(top);
        s.bySlope.push_back(seg);
        for (std::size_t i = 1; i <= top; ++i) {
            const std::size_t e = s.rowEnd[i]++;
            s.rowSlope[e] = seg.slope;
            s.rowUnits[e + 1] = s.rowUnits[e] + seg.units;
            s.rowGain[e + 1] = s.rowGain[e] + seg.gain;
        }
    }
    for (std::size_t i = 1; i < n; ++i)
        s.rowSlope[s.rowEnd[i]] = 0.0;
}

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

    static thread_local Scratch s;
    const int n = chip.numCores();
    const auto un = static_cast<std::size_t>(n);
    const std::size_t k = choicesPerCore(chip);
    chipChoices(chip, s.choices);
    // Each choice's power in grid units, rounded up so the grid never
    // under-counts; computed once, not per relaxation.
    s.costs.resize(s.choices.size());
    s.minCost.resize(un);
    s.maxCost.resize(un);
    double reach = 0.0; // units the chip can reach at all
    double peak = 0.0;  // every core at its best throughput
    for (std::size_t i = 0; i < un; ++i) {
        double bottom = std::numeric_limits<double>::infinity();
        double top = 0.0;
        double best = 0.0;
        for (std::size_t j = i * k; j < (i + 1) * k; ++j) {
            const double cost =
                std::ceil(s.choices[j].powerW / power_res_w - 1e-12);
            SC_ASSERT(reach + cost < std::numeric_limits<int>::max(),
                      "optimizeAllocation: resolution too fine");
            bottom = std::min(bottom, cost);
            top = std::max(top, cost);
            best = std::max(best, s.choices[j].throughput);
            s.costs[j] = static_cast<int>(cost);
        }
        reach += top;
        peak += best;
        s.minCost[i] = static_cast<int>(bottom);
        s.maxCost[i] = static_cast<int>(top);
    }
    // No state costs more than the chip can reach, so a budget beyond
    // that changes nothing but the scratch size.
    const int limit = static_cast<int>(std::min(budget_units, reach));

    // The LP relaxation (the paper's allocator) bounds the DP. Each
    // core's hull starts at its base choice; restUnits[i] and
    // restBase[i] are what cores i..n-1 cost and deliver there.
    s.segments.clear();
    s.runBegin.resize(un + 1);
    s.lbChoice.resize(un);
    for (std::size_t i = 0; i < un; ++i) {
        s.runBegin[i] = s.segments.size();
        s.lbChoice[i] = addHullSegments(s, static_cast<int>(i), k);
    }
    s.runBegin[un] = s.segments.size();
    s.restUnits.assign(un + 1, 0);
    s.restBase.assign(un + 1, 0.0);
    for (std::size_t i = un; i-- > 0;) {
        s.restUnits[i] = s.restUnits[i + 1] + s.minCost[i];
        s.restBase[i] = s.restBase[i + 1] +
            s.choices[i * k + static_cast<std::size_t>(s.lbChoice[i])]
                .throughput;
    }
    if (s.restUnits[0] > limit)
        return res; // even the cheapest choices do not fit
    mergeBySlope(s, un);

    // LB: a feasible allocation. Every core starts at its base choice
    // and takes its segments in slope order while they fit; a core
    // stops at its first one that does not. Its throughput is summed
    // in core order, the fold the DP uses, so LB <= the DP's optimum.
    s.lbStopped.assign(un, 0);
    int spare = limit - s.restUnits[0];
    for (const Segment &seg : s.bySlope) {
        const auto core = static_cast<std::size_t>(seg.core);
        if (s.lbStopped[core])
            continue;
        if (seg.units <= spare) {
            spare -= seg.units;
            s.lbChoice[core] = seg.to;
        } else {
            s.lbStopped[core] = 1;
        }
    }
    double lb = 0.0;
    for (std::size_t i = 0; i < un; ++i)
        lb += s.choices[i * k + static_cast<std::size_t>(s.lbChoice[i])]
                  .throughput;
    // Every path value lies below peak, so a margin of 1e-9 of it
    // dwarfs the rounding of any sum here; without one, the optimum's
    // path can fall short of LB by an ulp and be cut.
    const double cut = lb - 1e-9 * peak;

    // Layer i of the frontier holds, by ascending units, the states of
    // cores 0..i-1 whose throughput strictly beats every cheaper
    // state's. A state is relaxed only if its throughput plus UB_i (the
    // LP of cores i..n-1 on the units left, looked up in row i) can
    // still reach the cut; the root always can. Relaxation keeps the
    // dense order: ascending units, ascending choice, strict '>'. See
    // the header for why this reproduces the dense DP bit for bit.
    s.states.resize(std::max<std::size_t>(s.states.size(), 1));
    s.states[0] = State{};
    std::size_t count = 1;
    const auto cells = static_cast<std::size_t>(limit) + 1;
    if (s.next.size() < cells) {
        s.next.resize(cells, Cell{kNegInf, -1, -1});
        s.touched.resize(cells / 64 + 1, 0);
    }
    std::size_t layer_begin = 0;
    for (std::size_t i = 0; i < un; ++i) {
        const std::size_t layer_end = count;
        const std::size_t base = i * k;
        // A target must leave the later cores their base cost.
        const int cap = limit - s.restUnits[i + 1];
        // Room for every cell this layer can write, made before any is.
        const auto reachable = static_cast<std::size_t>(
            s.states[layer_end - 1].units + s.maxCost[i] -
            s.states[layer_begin].units - s.minCost[i] + 1);
        if (s.states.size() < count + reachable)
            s.states.resize(count + reachable);
        const int spare_at_zero = limit - s.restUnits[i];
        std::size_t m = i > 0 ? s.rowBegin[i + 1] - 1 : 0;
        int first = -1; // units of the first and last relaxed source
        int last = -1;
        for (std::size_t j = layer_begin; j < layer_end; ++j) {
            const State src = s.states[j];
            if (i > 0) {
                const int spare_units = spare_at_zero - src.units;
                while (s.rowUnits[m] > spare_units)
                    --m;
                const double ub = s.restBase[i] + s.rowGain[m] +
                    s.rowSlope[m] * (spare_units - s.rowUnits[m]);
                if (src.throughput + ub < cut)
                    continue;
            }
            if (first < 0)
                first = src.units;
            last = src.units;
            for (std::size_t c = 0; c < k; ++c) {
                const int u2 = src.units + s.costs[base + c];
                if (u2 > cap)
                    continue;
                const double t =
                    src.throughput + s.choices[base + c].throughput;
                const auto uu = static_cast<std::size_t>(u2);
                Cell &cell = s.next[uu];
                if (t > cell.throughput) {
                    cell = {t, static_cast<int>(j), static_cast<int>(c)};
                    s.touched[uu / 64] |= std::uint64_t{1} << (uu % 64);
                }
            }
        }
        if (first < 0)
            return res; // nothing relaxed, so no cell was touched
        // Relaxed sources ascend in units, so these bound every cell
        // written. The scan visits those in ascending units, resets
        // each, and keeps one on the frontier if it beats every cheaper
        // cell: it is always written, and the count moves only then.
        const auto lo = static_cast<std::size_t>(first + s.minCost[i]);
        const auto hi =
            static_cast<std::size_t>(std::min(cap, last + s.maxCost[i]));
        double best = kNegInf;
        for (std::size_t w = lo / 64; w <= hi / 64; ++w) {
            std::uint64_t bits = s.touched[w];
            s.touched[w] = 0;
            while (bits != 0) {
                const std::size_t u =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                Cell &cell = s.next[u];
                s.states[count] = {static_cast<int>(u), cell.from,
                                   cell.choice, cell.throughput};
                const bool keep = cell.throughput > best;
                count += keep;
                best = keep ? cell.throughput : best;
                cell.throughput = kNegInf;
            }
        }
        if (count == layer_end)
            return res;
        layer_begin = layer_end;
    }

    // The last state of the final layer is the dense DP's best end
    // state; walk its back-pointers from core n-1 down to core 0.
    res.settings.resize(un);
    std::size_t j = count - 1;
    for (int i = n - 1; i >= 0; --i) {
        const State &st = s.states[j];
        const Choice &ch = s.choices[static_cast<std::size_t>(i) * k +
                                     static_cast<std::size_t>(st.choice)];
        res.settings[static_cast<std::size_t>(i)] = ch.setting;
        res.powerW += ch.powerW;
        res.throughput += ch.throughput;
        j = static_cast<std::size_t>(st.from);
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
    std::vector<Choice> choices;
    chipChoices(chip, choices);

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
