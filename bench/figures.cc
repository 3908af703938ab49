/**
 * @file
 * Every figure and table of the reproduction, as rows of one binary:
 * the paper's Figures 5-7 and 12-16, Tables 2-6 and the Section 6.1.2
 * DARP breakdown, plus the cross-spec comparison, three ablations, the
 * HiRA, REFsb and overlapped-REFpb extensions and the open-loop
 * tail-latency figure.
 *
 * A figure is one entry of figures(): its id, banner and note, the
 * workload set it runs, its grids, and a table function that reduces
 * the results and prints them. A grid is a list of mechanism columns
 * and a list of labelled rows; each row is a set of key=value
 * overrides that ExperimentConfig's key table applies to the base
 * config. Every point of a figure runs in one SweepRunner::run call,
 * so the output is byte-identical for any job count.
 *
 *   bench_figures --list
 *   bench_figures ID|all [--jobs N] [--spec NAME] [--channels N]
 *                        [--sr-idle CYCLES] [--grid full|smoke]
 *
 * --spec, --channels and --sr-idle set dram.spec, channels and
 * refresh.selfRefresh.idleEntry in the base config of every figure. A
 * figure whose own grid sets that key, or that simulates nothing,
 * rejects the flag. --grid smoke selects a figure's reduced grid; only
 * fig_tail_latency has one. Run lengths come from the DSARP_BENCH_*
 * knobs (sim/runner.hh). Four figures gate a qualitative result and
 * exit 1 when it breaks: ablation_channel_stagger, extension_hira,
 * extension_refsb and fig_tail_latency.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "sim/config_keys.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

using namespace dsarp;
using namespace dsarp::bench;

namespace {

/** key=value overrides, applied in order through ExperimentConfig. */
using Sets = std::vector<std::pair<const char *, std::string>>;

/** A labelled grid row. simulate() fills in its workloads and runs. */
struct Row
{
    std::string label;
    Sets sets;
    std::vector<Workload> workloads = {};  ///< Empty on an open-loop row.
    /** Per mechanism column: one result per workload, or a single
     *  result on an open-loop row. */
    std::map<std::string, std::vector<RunResult>> runs = {};

    /** The WS of every run of column @p mech. */
    std::vector<double>
    ws(const std::string &mech) const
    {
        return wsOf(runs.at(mech));
    }

    /** The value this row sets for @p key. */
    const std::string &
    value(const char *key) const
    {
        for (const auto &[k, v] : sets) {
            if (std::strcmp(k, key) == 0)
                return v;
        }
        DSARP_PANIC("a figure's table reads a key its row does not set");
    }
};

/** Mechanism columns x labelled rows: one point per cell and workload. */
struct Grid
{
    std::vector<std::string> mechs;
    std::vector<Row> rows;
};

using Grids = std::vector<Grid>;

/** The workloads of a row with @p cores cores. */
using WorkloadSet = std::vector<Workload> (*)(int perCategory, int cores);

struct Figure
{
    const char *id;
    const char *title;       ///< Banner head, e.g. "Figure 6".
    const char *what;        ///< Banner text.
    const char *note;        ///< Printed as "\n[note]\n"; "" for none.
    WorkloadSet workloads;   ///< nullptr when no closed-loop row runs.
    Grids grids;
    /** Prints the figure's table; false fails its gate (exit 1). */
    bool (*table)(const Grids &);
    Grids smoke = {};        ///< The reduced grid --grid smoke selects.
};

// --- Workload sets and rows ------------------------------------------

/** The paper's mixes: every intensity category, seed 1. */
std::vector<Workload>
mixes(int perCategory, int cores)
{
    return makeWorkloads(perCategory, cores, 1);
}

/** All-intensive mixes for the sensitivity studies, twice as many. */
template <std::uint64_t Seed>
std::vector<Workload>
intensive(int perCategory, int cores)
{
    return makeIntensiveWorkloads(perCategory * 2, cores, Seed);
}

/** One row per paper density, labelled "8Gb" .. "32Gb", on @p sets. */
std::vector<Row>
densityRows(const Sets &sets = {})
{
    std::vector<Row> rows;
    for (const char *gb : {"8", "16", "32"}) {
        rows.push_back({std::string(gb) + "Gb", sets});
        rows.back().sets.emplace_back(keys::kDensityGb, gb);
    }
    return rows;
}

/** One row per value of @p key, labelled by the value, on @p sets. */
std::vector<Row>
axisRows(const char *key, std::initializer_list<const char *> values,
         const Sets &sets)
{
    std::vector<Row> rows;
    for (const char *v : values) {
        rows.push_back({v, sets});
        rows.back().sets.emplace_back(key, v);
    }
    return rows;
}

/** One row per registered DRAM spec and density (spec-major), labelled
 *  by the spec; @p sameBankOnly keeps the REFsb-capable specs. */
std::vector<Row>
specRows(std::initializer_list<const char *> gbs, bool sameBankOnly = false)
{
    std::vector<Row> rows;
    for (const std::string &spec : DramSpecRegistry::instance().names()) {
        if (sameBankOnly && !specSupportsSameBank(spec))
            continue;
        for (const char *gb : gbs)
            rows.push_back(
                {spec, {{keys::kDramSpec, spec}, {keys::kDensityGb, gb}}});
    }
    return rows;
}

const Sets k32Gb = {{keys::kDensityGb, "32"}};

// --- Reductions shared by several tables -----------------------------

/** Gmean WS gain (%) of column @p mech over column @p base. */
double
gain(const Row &row, const std::string &mech, const std::string &base)
{
    return gmeanPctOver(row.ws(mech), row.ws(base));
}

/** One field of every run. */
std::vector<double>
of(const std::vector<RunResult> &runs, double RunResult::*field)
{
    std::vector<double> out;
    for (const RunResult &r : runs)
        out.push_back(r.*field);
    return out;
}

/** Loss against @p ideal from the gmean ratio, (1 - g) x 100. */
double
gmeanLossPct(const std::vector<double> &xs, const std::vector<double> &ideal)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < xs.size(); ++i)
        ratios.push_back(xs[i] / ideal[i]);
    return (1.0 - gmean(ratios)) * 100.0;
}

/** Print, per intensity category, the mean of @p pct over the row's
 *  workloads in that category. */
void
printByCategory(const Row &row, const std::function<double(std::size_t)> &pct)
{
    std::map<int, std::vector<double>> byCat;
    for (std::size_t i = 0; i < row.workloads.size(); ++i)
        byCat[row.workloads[i].categoryPct].push_back(pct(i));
    for (int cat : {0, 25, 50, 75, 100})
        std::printf(" %7.1f%%", mean(byCat[cat]));
}

/** Print the max and gmean gains of @p ws over @p refpb and @p refab. */
void
printGains(const std::vector<double> &ws, const std::vector<double> &refpb,
           const std::vector<double> &refab)
{
    std::printf(" %9.1f%% %9.1f%% %11.1f%% %11.1f%%\n", maxPctOver(ws, refpb),
                maxPctOver(ws, refab), gmeanPctOver(ws, refpb),
                gmeanPctOver(ws, refab));
}

/** Arithmetic means over a cell's runs, as the extension tables print. */
struct MechPoint
{
    double ws = 0.0;
    double ipc = 0.0;      ///< Mean per-core IPC.
    double energy = 0.0;   ///< Energy per access (nJ).
    double refPb = 0.0;    ///< REFpb commands per run.
    double refCmds = 0.0;  ///< REFpb + REFsb commands per run.
    double hidden = 0.0;   ///< HiRA-hidden refreshes per run.
};

MechPoint
measure(const std::vector<RunResult> &runs)
{
    MechPoint p;
    std::uint64_t refPb = 0, refSb = 0, hidden = 0;
    for (const RunResult &r : runs) {
        double ipcSum = 0.0;
        for (double ipc : r.ipc)
            ipcSum += ipc;
        p.ipc += ipcSum / static_cast<double>(r.ipc.size());
        p.ws += r.ws;
        p.energy += r.energyPerAccessNj;
        refPb += r.refPb;
        refSb += r.refSb;
        hidden += r.refPbHidden;
    }
    const double n = static_cast<double>(runs.size());
    p.ws /= n;
    p.ipc /= n;
    p.energy /= n;
    p.refPb = static_cast<double>(refPb) / n;
    p.refCmds = static_cast<double>(refPb + refSb) / n;
    p.hidden = static_cast<double>(hidden) / n;
    return p;
}

// --- The paper's figures ---------------------------------------------

struct TrfcPoint
{
    double gb;
    double ns;
};

/** Least-squares line through the points. */
void
fitLine(const std::vector<TrfcPoint> &pts, double &slope, double &intercept)
{
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const double n = static_cast<double>(pts.size());
    for (const TrfcPoint &p : pts) {
        sx += p.gb;
        sy += p.ns;
        sxx += p.gb * p.gb;
        sxy += p.gb * p.ns;
    }
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    intercept = (sy - slope * sx) / n;
}

/**
 * Figure 5: the paper's linear extrapolations of tRFCab. Projection 1
 * fits the 1/2/4 Gb generations, Projection 2 (the optimistic one the
 * paper uses) fits 4 and 8 Gb; the paper reads ~1.6 us at 64 Gb off
 * Projection 2.
 */
bool
trfcTrend(const Grids &)
{
    // Datasheet tRFCab values for shipped DDR3 generations [11, 29].
    const std::vector<TrfcPoint> present = {
        {1, 110.0}, {2, 160.0}, {4, 260.0}, {8, 350.0}};

    double s1, c1, s2, c2;
    fitLine({present[0], present[1], present[2]}, s1, c1);  // 1/2/4 Gb.
    fitLine({present[2], present[3]}, s2, c2);              // 4/8 Gb.

    std::printf("%-10s %12s %14s %14s\n", "density", "present(ns)",
                "projection1", "projection2");
    for (int gb : {1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64}) {
        std::printf("%-10d", gb);
        bool found = false;
        for (const TrfcPoint &p : present) {
            if (static_cast<int>(p.gb) == gb) {
                std::printf(" %12.0f", p.ns);
                found = true;
            }
        }
        if (!found)
            std::printf(" %12s", "-");
        std::printf(" %14.0f %14.0f\n", s1 * gb + c1, s2 * gb + c2);
    }

    const double at64 = s2 * 64 + c2;
    std::printf("\nProjection 2 at 64 Gb: %.2f us  (paper: ~1.6 us)\n",
                at64 / 1000.0);
    std::printf("Projection 2 at 16/32 Gb: %.0f / %.0f ns "
                "(paper Table 1 uses 530 / 890 ns)\n\n",
                s2 * 16 + c2, s2 * 32 + c2);
    return true;
}

/**
 * Figure 6: WS loss of REFab against no refresh, by memory intensity
 * (% of intensive benchmarks in the mix) and density. Paper: the loss
 * grows with both, past 20% for fully intensive mixes at 32 Gb.
 */
bool
refabLoss(const Grids &grids)
{
    std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "density", "0%", "25%",
                "50%", "75%", "100%", "gmean");
    for (const Row &row : grids[0].rows) {
        const auto ideal = row.ws("NoREF");
        const auto refab = row.ws("REFab");
        std::printf("%-10s", row.label.c_str());
        printByCategory(row, [&](std::size_t i) {
            return (1.0 - refab[i] / ideal[i]) * 100.0;
        });
        std::printf(" %7.1f%%\n", gmeanLossPct(refab, ideal));
    }
    return true;
}

/**
 * Figure 7: average WS loss of REFab and REFpb against no refresh.
 * Paper: REFpb beats REFab at every density but still loses 16.6% at
 * 32 Gb, which motivates DARP and SARP.
 */
bool
refpbLoss(const Grids &grids)
{
    std::printf("%-10s %12s %12s\n", "density", "REFab loss", "REFpb loss");
    for (const Row &row : grids[0].rows) {
        std::printf("%-10s", row.label.c_str());
        for (const char *mech : {"REFab", "REFpb"})
            std::printf(" %11.1f%%",
                        gmeanLossPct(row.ws(mech), row.ws("NoREF")));
        std::printf("\n");
    }
    return true;
}

/**
 * Figure 12: per-workload WS of REFpb, DARP, SARPpb and DSARP
 * normalized to REFab, sorted by DARP's gain as in the paper. Paper
 * shape: DSARP on top (up to ~1.36x at 32 Gb); REFpb can dip below 1.0
 * (its serialized tRFCpb pathology, Section 6.1).
 */
bool
sortedWs(const Grids &grids)
{
    const Grid &grid = grids[0];
    for (const Row &row : grid.rows) {
        const auto &refab = row.runs.at("REFab");
        const auto &darp = row.runs.at("DARP");
        std::vector<int> order(row.workloads.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return darp[a].ws / refab[a].ws < darp[b].ws / refab[b].ws;
        });

        std::printf("\n--- %s ---\n", row.label.c_str());
        std::printf("%-6s %5s %8s %8s %8s %8s\n", "rank", "wl", "REFpb",
                    "DARP", "SARPpb", "DSARP");
        for (std::size_t i = 0; i < order.size(); ++i) {
            const int w = order[i];
            std::printf("%-6zu %5d", i, row.workloads[w].index);
            for (std::size_t m = 1; m < grid.mechs.size(); ++m)
                std::printf(" %8.3f",
                            row.runs.at(grid.mechs[m])[w].ws / refab[w].ws);
            std::printf("\n");
        }
        std::printf("gmean %5s", "-");
        for (std::size_t m = 1; m < grid.mechs.size(); ++m)
            std::printf(" %8.3f",
                        1.0 + gain(row, grid.mechs[m], "REFab") / 100.0);
        std::printf("\n");
    }
    return true;
}

/**
 * Figure 13: gmean WS gain over REFab of every mechanism. Paper:
 * Elastic gains only ~1.8%; DSARP comes within 0.9/1.2/3.7% of NoREF.
 * On a same-bank-capable spec the figure gains a REFsb column.
 */
bool
allMechanisms(const Grids &grids)
{
    const Grid &grid = grids[0];
    std::printf("%-10s", "density");
    for (std::size_t m = 1; m < grid.mechs.size(); ++m)
        std::printf(" %7s", grid.mechs[m].c_str());
    std::printf("\n");
    for (const Row &row : grid.rows) {
        std::printf("%-10s", row.label.c_str());
        for (std::size_t m = 1; m < grid.mechs.size(); ++m)
            std::printf(" %6.1f%%", gain(row, grid.mechs[m], "REFab"));
        std::printf("\n");
    }
    return true;
}

/**
 * Figure 14: DRAM energy per access (Micron power-calculator method,
 * with the spec's own IDD set). Paper: DSARP saves 3.0/5.2/9.0% over
 * REFab, mostly static energy saved by running faster. With --sr-idle
 * every column also pays and saves for command-level self-refresh.
 */
bool
energy(const Grids &grids)
{
    const Grid &grid = grids[0];
    std::printf("%-10s %7s %7s %8s %7s %7s %7s %7s %7s %10s\n", "density",
                "REFab", "REFpb", "Elastic", "DARP", "SARPab", "SARPpb",
                "DSARP", "NoREF", "DSARPvAB");
    for (const Row &row : grid.rows) {
        const double refab = mean(energyOf(row.runs.at("REFab")));
        std::printf("%-10s %7.2f", row.label.c_str(), refab);
        for (std::size_t m = 1; m < grid.mechs.size(); ++m)
            std::printf(" %7.2f",
                        mean(energyOf(row.runs.at(grid.mechs[m]))));
        std::printf(" %8.1f%%\n",
                    (1.0 - mean(energyOf(row.runs.at("DSARP"))) / refab) *
                        100.0);
    }
    return true;
}

/**
 * Figure 15: DSARP's WS gain over REFab and over REFpb by memory
 * intensity. Paper: the gain over REFab rises with intensity; the gain
 * over REFpb plateaus past 25% (REFpb itself improves with intensity).
 */
bool
byIntensity(const Grids &grids)
{
    for (const char *base : {"REFab", "REFpb"}) {
        std::printf("\nCompared to %s:\n", base);
        std::printf("%-10s %8s %8s %8s %8s %8s %8s\n", "density", "0%",
                    "25%", "50%", "75%", "100%", "avg");
        for (const Row &row : grids[0].rows) {
            const auto b = row.ws(base);
            const auto d = row.ws("DSARP");
            std::printf("%-10s", row.label.c_str());
            printByCategory(row, [&](std::size_t i) {
                return pctOver(d[i], b[i]);
            });
            std::printf(" %7.1f%%\n", gmeanPctOver(d, b));
        }
    }
    return true;
}

/**
 * Figure 16: DDR4 fine granularity refresh, adaptive refresh and DSARP
 * as WS normalized to REFab. Paper: FGR 2x/4x lose 3.9-4.3% /
 * 8.1-15.1%, AR sits within ~1% of REFab, only DSARP gains. A
 * same-bank-capable spec adds a REFsb column.
 */
bool
fgr(const Grids &grids)
{
    const Grid &grid = grids[0];
    std::printf("%-10s", "density");
    for (const std::string &mech : grid.mechs)
        std::printf(" %8s", mech.c_str());
    std::printf("\n");
    for (const Row &row : grid.rows) {
        std::printf("%-10s %8.3f", row.label.c_str(), 1.0);
        for (std::size_t m = 1; m < grid.mechs.size(); ++m)
            std::printf(" %8.3f",
                        1.0 + gain(row, grid.mechs[m], "REFab") / 100.0);
        std::printf("\n");
    }
    return true;
}

/**
 * Table 2: max and gmean WS gain of DARP, SARPpb and DSARP over REFpb
 * and REFab. Paper gmean over REFpb / REFab (%): 8Gb DARP 2.8/7.4,
 * SARPpb 3.3/7.9, DSARP 3.3/7.9; 16Gb 4.9/9.8, 6.7/11.7, 7.2/12.3;
 * 32Gb 3.8/8.3, 13.7/18.6, 15.2/20.2.
 */
bool
summary(const Grids &grids)
{
    std::printf("%-8s %-10s %10s %10s %12s %12s\n", "density", "mech",
                "max/pb", "max/ab", "gmean/pb", "gmean/ab");
    for (const Row &row : grids[0].rows) {
        for (const char *mech : {"DARP", "SARPpb", "DSARP"}) {
            std::printf("%-8s %-10s", row.label.c_str(), mech);
            printGains(row.ws(mech), row.ws("REFpb"), row.ws("REFab"));
        }
    }
    return true;
}

/**
 * Table 3: DSARP over REFab by core count, memory-intensive mixes at
 * 32 Gb. Paper: WS +16.0/20.0/27.2%, HS +16.1/20.7/27.9%, max
 * slowdown -14.9/19.4/24.1%, energy -10.2/8.1/8.5% for 2/4/8 cores.
 */
bool
coreCount(const Grids &grids)
{
    std::printf("%-6s %10s %10s %14s %12s\n", "cores", "WS impr",
                "HS impr", "maxSlow red", "energy red");
    for (const Row &row : grids[0].rows) {
        const auto &b = row.runs.at("REFab");
        const auto &d = row.runs.at("DSARP");
        std::printf("%-6s %9.1f%% %9.1f%% %13.1f%% %11.1f%%\n",
                    row.label.c_str(), gain(row, "DSARP", "REFab"),
                    gmeanPctOver(of(d, &RunResult::hs),
                                 of(b, &RunResult::hs)),
                    -gmeanPctOver(of(d, &RunResult::maxSlowdown),
                                  of(b, &RunResult::maxSlowdown)),
                    -gmeanPctOver(energyOf(d), energyOf(b)));
    }
    return true;
}

/**
 * Table 4: SARPpb's gain over REFpb against tFAW/tRRD, intensive mixes
 * at 32 Gb. SARP inflates both during refresh for power integrity, so
 * tighter windows cost it more. Paper: 14.0/13.9/13.5/12.4/11.9/10.3%
 * for 5/1 .. 30/6 DRAM cycles.
 */
bool
tfaw(const Grids &grids)
{
    std::printf("%-12s %14s\n", "tFAW/tRRD", "WS improvement");
    for (const Row &row : grids[0].rows) {
        std::printf("%3s/%-8s %13.1f%%\n",
                    row.value(keys::kTFawOverride).c_str(),
                    row.value(keys::kTRrdOverride).c_str(),
                    gain(row, "SARPpb", "REFpb"));
    }
    return true;
}

/**
 * Table 5: SARPpb's gain over REFpb against subarrays per bank,
 * intensive mixes at 32 Gb: more subarrays, fewer demand collisions
 * with the refreshing one. Paper: 0/3.8/8.5/12.4/14.9/16.2/16.9% for
 * 1..64 subarrays.
 */
bool
subarrays(const Grids &grids)
{
    std::printf("%-12s %14s\n", "subarrays", "WS improvement");
    for (const Row &row : grids[0].rows) {
        std::printf("%-12s %13.1f%%\n", row.label.c_str(),
                    gain(row, "SARPpb", "REFpb"));
    }
    return true;
}

/**
 * Table 6: DSARP at the relaxed 64 ms retention (tREFIab = 7.8 us).
 * Paper gmean over REFpb / REFab: 1.0/3.3% at 8 Gb, 2.6/5.3% at 16 Gb,
 * 8.0/9.1% at 32 Gb.
 */
bool
retention(const Grids &grids)
{
    std::printf("%-10s %10s %10s %12s %12s\n", "density", "max/pb",
                "max/ab", "gmean/pb", "gmean/ab");
    for (const Row &row : grids[0].rows) {
        std::printf("%-10s", row.label.c_str());
        printGains(row.ws("DSARP"), row.ws("REFpb"), row.ws("REFab"));
    }
    return true;
}

/**
 * Section 6.1.2: DARP's out-of-order per-bank refresh alone (grid 1,
 * write-refresh parallelization off) against full DARP, both over
 * REFab. Paper: out-of-order alone gains 3.2/3.9/3.0% (up to
 * 16.8/21.3/20.2%); write-refresh parallelization adds 4.3/5.8/5.2%.
 */
bool
darpBreakdown(const Grids &grids)
{
    std::printf("%-10s %16s %16s %14s\n", "density", "out-of-order",
                "full DARP", "wr-ref delta");
    for (std::size_t r = 0; r < grids[0].rows.size(); ++r) {
        const Row &row = grids[0].rows[r];
        const auto refab = row.ws("REFab");
        const auto oooWs = grids[1].rows[r].ws("DARP");
        const double oooPct = gmeanPctOver(oooWs, refab);
        const double darpPct = gain(row, "DARP", "REFab");
        std::printf("%-10s %9.1f%% (max %4.1f%%) %9.1f%% %13.1f%%\n",
                    row.label.c_str(), oooPct, maxPctOver(oooWs, refab),
                    darpPct, darpPct - oooPct);
    }
    return true;
}

// --- Beyond the paper ------------------------------------------------

/**
 * Every registered DRAM spec. First the refresh lockout: tRFCab in ns
 * is a density property, but its cycle cost, and so the fraction of
 * tREFI a rank is locked out, grows with the interface clock -- the
 * paper's motivating trend. Then DSARP's WS win over REFab per spec x
 * density: refresh-access parallelization is a claim about device
 * families, not one DDR3-1333 bin.
 */
bool
specComparison(const Grids &grids)
{
    const auto &registry = DramSpecRegistry::instance();
    std::printf("refresh lockout per spec (32 ms retention):\n");
    std::printf("%-12s %8s %10s %12s %12s %12s\n", "spec", "tCK(ns)",
                "density", "tRFCab(ns)", "tRFCab(cyc)", "lockout%");
    for (const std::string &name : registry.names()) {
        const DramSpec &spec = registry.at(name);
        for (Density d : densities()) {
            MemConfig mem;
            mem.dramSpec = name;
            mem.density = d;
            mem.org.rowsPerBank = rowsPerBankFor(d);
            const TimingParams t = spec.timingFor(mem);
            const double lockoutPct =
                100.0 * static_cast<double>(t.tRfcAb.count()) /
                static_cast<double>(t.tRefiAb.count());
            std::printf("%-12s %8.3f %10s %12.0f %12d %11.1f%%\n",
                        name.c_str(), spec.tCkNs.ns(), densityName(d),
                        spec.tRfcAbNsFor(d).ns(),
                        static_cast<int>(t.tRfcAb.count()), lockoutPct);
            std::printf("JSON {\"bench\":\"spec_comparison\","
                        "\"row\":\"trfc\",\"spec\":\"%s\","
                        "\"density\":\"%s\",\"tck_ns\":%.4f,"
                        "\"trfc_ab_ns\":%.1f,\"trfc_ab_cycles\":%d,"
                        "\"trfc_pb_cycles\":%d,\"trefi_ab_cycles\":%llu,"
                        "\"lockout_pct\":%.2f}\n",
                        name.c_str(), densityName(d), spec.tCkNs.ns(),
                        spec.tRfcAbNsFor(d).ns(),
                        static_cast<int>(t.tRfcAb.count()),
                        static_cast<int>(t.tRfcPb.count()),
                        static_cast<unsigned long long>(
                            t.tRefiAb.count()),
                        lockoutPct);
        }
    }

    std::printf("\nDSARP WS win over REFab per spec (gmean %% across "
                "workloads):\n");
    std::printf("%-12s", "spec");
    for (Density d : densities())
        std::printf(" %9s", densityName(d));
    std::printf("\n");
    const std::vector<Row> &rows = grids[0].rows;
    const std::size_t perSpec = densities().size();
    for (std::size_t r = 0; r < rows.size(); r += perSpec) {
        std::printf("%-12s", rows[r].label.c_str());
        for (std::size_t k = 0; k < perSpec; ++k)
            std::printf(" %8.1f%%", gain(rows[r + k], "DSARP", "REFab"));
        std::printf("\n");
        for (std::size_t k = 0; k < perSpec; ++k) {
            const Row &row = rows[r + k];
            std::printf("JSON {\"bench\":\"spec_comparison\","
                        "\"row\":\"dsarp_win\",\"spec\":\"%s\","
                        "\"density\":\"%sGb\",\"ws_refab\":%.4f,"
                        "\"ws_dsarp\":%.4f,\"win_pct\":%.2f}\n",
                        row.label.c_str(),
                        row.value(keys::kDensityGb).c_str(),
                        gmean(row.ws("REFab")), gmean(row.ws("DSARP")),
                        gain(row, "DSARP", "REFab"));
        }
    }
    return true;
}

/**
 * Ablation: the cross-rank phase of the REFab schedule, which the
 * paper leaves unspecified. Spreading the ranks evenly (divisor 2)
 * halves channel capacity twice per interval; nearly aligning them
 * concentrates the damage into one window, which is much better for
 * bandwidth-bound mixes. The repository's REFab baseline uses the
 * strong, near-aligned setting so DARP/SARP gains are not inflated.
 */
bool
rankStagger(const Grids &grids)
{
    const auto ideal = grids[0].rows[0].ws("NoREF");
    std::printf("%-22s %10s %12s\n", "rank phase", "WS", "loss vs ideal");
    for (const Row &row : grids[1].rows) {
        const auto ws = row.ws("REFab");
        std::printf("tREFI/(%2s*ranks) %15.3f %11.1f%%\n",
                    row.label.c_str(), gmean(ws), -gmeanPctOver(ws, ideal));
    }
    return true;
}

/**
 * Ablation: write-queue watermarks against DARP's write-refresh
 * parallelization. Algorithm 1 hides refreshes inside write drains, so
 * the batch length (high minus low watermark) bounds how many each
 * drain absorbs. Reports DARP's gain over REFpb and its REFpb commands
 * per run.
 */
bool
watermarks(const Grids &grids)
{
    std::printf("%-18s %12s %14s\n", "watermarks hi/lo", "DARP vs REFpb",
                "pulled-in/run");
    for (const Row &row : grids[0].rows) {
        const auto &darp = row.runs.at("DARP");
        double pulled = 0.0;
        for (const RunResult &r : darp)
            pulled += static_cast<double>(r.refPb);
        std::printf("%8s/32 %15.1f%% %14.0f\n", row.label.c_str(),
                    gain(row, "DARP", "REFpb"),
                    pulled / row.workloads.size());
    }
    return true;
}

/** Reduced-fidelity runs move WS by well under this; a real staggering
 *  regression on DSARP moves it by more. */
constexpr double kStaggerWsTolerance = 0.01;

/**
 * Ablation: the cross-channel phase of the refresh schedule
 * (refresh.channelStagger), aligned (0) against the even spread (-1 =
 * tREFIab / channels). Gates two results:
 *  - REFab's spread legs with 2+ channels report zero simultaneous-
 *    refresh overlap ticks. Per-bank mechanisms are exempt: their
 *    cadence, tREFIab / (ranks x banks), aliases onto the shift.
 *  - DSARP, whose refresh already hides behind demand, loses no WS to
 *    the spread (1% floor). Blocking REFab does lose WS with striped
 *    traffic -- rolling single-channel blackouts stall every core --
 *    which is reported, not gated.
 */
bool
channelStagger(const Grids &grids)
{
    struct Point
    {
        double wsGmean = 0.0;
        std::uint64_t overlapTicks = 0;
    };
    const auto point = [](const std::vector<RunResult> &runs) {
        Point p;
        p.wsGmean = gmean(wsOf(runs));
        for (const RunResult &r : runs)
            p.overlapTicks += r.refOverlapTicks;
        return p;
    };
    const auto print = [](const std::string &mech, const Row &row,
                          const Point &p) {
        const char *channels = row.value(keys::kChannels).c_str();
        std::printf("%-8s %9s %9s %12.3f %16llu\n", mech.c_str(), channels,
                    row.label.c_str(), p.wsGmean,
                    static_cast<unsigned long long>(p.overlapTicks));
        std::printf("{\"bench\": \"ablation_channel_stagger\", "
                    "\"mech\": \"%s\", \"channels\": %s, "
                    "\"stagger\": \"%s\", \"ws_gmean\": %.17g, "
                    "\"ref_overlap_ticks\": %llu}\n",
                    mech.c_str(), channels, row.label.c_str(), p.wsGmean,
                    static_cast<unsigned long long>(p.overlapTicks));
    };

    const Grid &grid = grids[0];
    std::printf("%-8s %9s %9s %12s %16s\n", "mech", "channels", "stagger",
                "WS gmean", "overlap ticks");
    bool ok = true;
    for (const std::string &mech : grid.mechs) {
        for (std::size_t r = 0; r < grid.rows.size(); r += 2) {
            const Point aligned = point(grid.rows[r].runs.at(mech));
            const Point spread = point(grid.rows[r + 1].runs.at(mech));
            print(mech, grid.rows[r], aligned);
            print(mech, grid.rows[r + 1], spread);
            const std::string &channels = grid.rows[r].value(keys::kChannels);
            if (std::stoi(channels) < 2)
                continue;  // Stagger is a no-op with one channel.
            if (mech == "REFab" && spread.overlapTicks != 0) {
                std::printf("[FAIL: auto stagger left %llu overlap "
                            "ticks under %s with %s channels]\n",
                            static_cast<unsigned long long>(
                                spread.overlapTicks),
                            mech.c_str(), channels.c_str());
                ok = false;
            }
            if (mech == "DSARP" &&
                spread.wsGmean <
                    aligned.wsGmean * (1.0 - kStaggerWsTolerance)) {
                std::printf("[FAIL: auto stagger lost WS under %s "
                            "with %s channels: %.6f < %.6f]\n",
                            mech.c_str(), channels.c_str(), spread.wsGmean,
                            aligned.wsGmean);
                ok = false;
            }
        }
    }
    return ok;
}

/**
 * Extension (paper footnote 5): LPDDR serializes per-bank refreshes
 * within a rank; a modified standard could overlap a few. REFpb and
 * DSARP with overlap limits 1 (standard), 2 and 4 at 32 Gb, where
 * REFpb's serialized rank sweep (8 x tRFCpb ~= 3.5 x tRFCab) is worst.
 */
bool
overlappedRefpb(const Grids &grids)
{
    const auto ideal = grids[0].rows[0].ws("NoREF");
    std::printf("%-10s %10s %12s %12s\n", "overlap", "mech", "WS",
                "loss/ideal");
    for (const Row &row : grids[1].rows) {
        for (const std::string &mech : grids[1].mechs) {
            const auto ws = row.ws(mech);
            std::printf("%-10s %10s %12.3f %11.1f%%\n", row.label.c_str(),
                        mech.c_str(), gmean(ws), -gmeanPctOver(ws, ideal));
        }
    }
    return true;
}

/**
 * Extension: HiRA (hidden row activation, Yağlıkçı et al., MICRO'22)
 * hides a refresh beneath an activation to another subarray of the
 * same bank, with no chip modification. Against REFab and DSARP on
 * every registered spec at 32 Gb; then, on DDR4-2400 at 8 Gb (the one
 * density where per-bank refresh fits its 4x command interval), HiRA
 * on FGR-scaled timing (refresh.fgrRate) against blocking FGR. Gate:
 * blocking FGR does not improve with rate, and HiRA at a rate does not
 * lose to FGR at that rate (2% headroom for smoke-scale noise). HiRA's
 * own rate axis is not forced monotone: at 8 Gb the shorter commands
 * can hide better.
 */
bool
hira(const Grids &grids)
{
    std::printf("%-12s %9s %9s %9s %9s %9s %8s\n", "spec", "WS.REFab",
                "WS.DSARP", "WS.HiRA", "HiRAvAB", "hidden%", "E.HiRA");
    for (const Row &row : grids[0].rows) {
        const MechPoint refab = measure(row.runs.at("REFab"));
        const MechPoint dsarp = measure(row.runs.at("DSARP"));
        const MechPoint hira = measure(row.runs.at("HiRA"));
        const double hiddenPct =
            hira.refPb > 0.0 ? 100.0 * hira.hidden / hira.refPb : 0.0;
        std::printf("%-12s %9.3f %9.3f %9.3f %8.1f%% %8.1f%% %8.2f\n",
                    row.label.c_str(), refab.ws, dsarp.ws, hira.ws,
                    pctOver(hira.ws, refab.ws), hiddenPct, hira.energy);
        for (const std::string &mech : grids[0].mechs) {
            const MechPoint p = measure(row.runs.at(mech));
            std::printf("JSON {\"bench\":\"extension_hira\","
                        "\"spec\":\"%s\",\"density\":\"%sGb\","
                        "\"mech\":\"%s\",\"ws\":%.4f,\"ipc\":%.4f,"
                        "\"energy_nj\":%.4f,\"refpb\":%.1f,"
                        "\"hidden\":%.1f}\n",
                        row.label.c_str(),
                        row.value(keys::kDensityGb).c_str(), mech.c_str(),
                        p.ws, p.ipc, p.energy, p.refPb, p.hidden);
        }
    }

    banner("HiRA x FGR", "DDR4-2400 per-bank HiRA on FGR-scaled timing");
    const Row &fgrRow = grids[2].rows[0];
    // HiRA@1x, HiRA@2x, HiRA@4x (grid 2's rows), then FGR2x and FGR4x.
    std::vector<std::pair<std::string, MechPoint>> points;
    for (const Row &row : grids[1].rows)
        points.emplace_back(row.label, measure(row.runs.at("HiRA")));
    for (const std::string &mech : grids[2].mechs)
        points.emplace_back(mech, measure(fgrRow.runs.at(mech)));
    const MechPoint &hira2x = points[1].second, &hira4x = points[2].second;
    const MechPoint &fgr2x = points[3].second, &fgr4x = points[4].second;
    std::printf("%-12s %9s %9s %9s %9s %9s\n", "spec", "HiRA.1x",
                "HiRA.2x", "HiRA.4x", "FGR2x", "FGR4x");
    std::printf("%-12s", fgrRow.value(keys::kDramSpec).c_str());
    for (const auto &[mech, p] : points)
        std::printf(" %9.3f", p.ws);
    std::printf("\n");
    for (const auto &[mech, p] : points) {
        std::printf("JSON {\"bench\":\"extension_hira_fgr\","
                    "\"spec\":\"%s\",\"density\":\"%sGb\","
                    "\"mech\":\"%s\",\"ws\":%.4f,\"ipc\":%.4f,"
                    "\"energy_nj\":%.4f,\"hidden\":%.1f}\n",
                    fgrRow.value(keys::kDramSpec).c_str(),
                    fgrRow.value(keys::kDensityGb).c_str(), mech.c_str(),
                    p.ws, p.ipc, p.energy, p.hidden);
    }
    bool ok = true;
    if (fgr4x.ws > fgr2x.ws * 1.02) {
        std::printf("ORDERING VIOLATION: blocking FGR must not improve "
                    "with rate (2x %.3f, 4x %.3f)\n", fgr2x.ws, fgr4x.ws);
        ok = false;
    }
    if (hira2x.ws < fgr2x.ws * 0.98 || hira4x.ws < fgr4x.ws * 0.98) {
        std::printf("ORDERING VIOLATION: HiRA at an FGR rate must not "
                    "lose to blocking FGR (2x %.3f vs %.3f, 4x %.3f vs "
                    "%.3f)\n",
                    hira2x.ws, fgr2x.ws, hira4x.ws, fgr4x.ws);
        ok = false;
    }
    return ok;
}

/**
 * Extension: DDR5 same-bank refresh (REFsb), the standard's own
 * refresh-access parallelism -- one bank-group slice refreshes while
 * the others serve -- against REFpb, HiRA, DSARP and the HiRA-paired
 * HiRAsb, on every REFsb-capable spec at 32 Gb. Every mechanism runs
 * the default 8-bank geometry: a 32-bank REFsb against an 8-bank DSARP
 * would credit REFsb with bank parallelism. Gate: REFsb lands between
 * the blocking REFpb and DSARP (2% headroom for smoke-scale noise).
 */
bool
refsb(const Grids &grids)
{
    const Grid &grid = grids[0];
    std::printf("%-12s %9s %9s %9s %9s %9s %9s\n", "spec", "WS.REFpb",
                "WS.REFsb", "WS.HiRAsb", "WS.HiRA", "WS.DSARP",
                "E.REFsb");
    bool ok = true;
    for (const Row &row : grid.rows) {
        std::printf("%-12s", row.label.c_str());
        for (const std::string &mech : grid.mechs)
            std::printf(" %9.3f", measure(row.runs.at(mech)).ws);
        std::printf(" %9.2f\n", measure(row.runs.at("REFsb")).energy);
        for (const std::string &mech : grid.mechs) {
            const MechPoint p = measure(row.runs.at(mech));
            std::printf("JSON {\"bench\":\"extension_refsb\","
                        "\"spec\":\"%s\",\"density\":\"%sGb\","
                        "\"mech\":\"%s\",\"ws\":%.4f,\"ipc\":%.4f,"
                        "\"energy_nj\":%.4f,\"ref_cmds\":%.1f}\n",
                        row.label.c_str(),
                        row.value(keys::kDensityGb).c_str(), mech.c_str(),
                        p.ws, p.ipc, p.energy, p.refCmds);
        }
        const double refpb = measure(row.runs.at("REFpb")).ws;
        const double refsb = measure(row.runs.at("REFsb")).ws;
        const double dsarp = measure(row.runs.at("DSARP")).ws;
        if (refsb < refpb * 0.98 || refsb > dsarp * 1.02) {
            std::printf("ORDERING VIOLATION on %s: REFpb %.3f, REFsb "
                        "%.3f, DSARP %.3f\n",
                        row.label.c_str(), refpb, refsb, dsarp);
            ok = false;
        }
    }
    return ok;
}

/** True when two runs produced bucket-identical latency histograms. */
bool
histogramsIdentical(const RunResult &a, const RunResult &b)
{
    if (a.readLatency.count() != b.readLatency.count())
        return false;
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        if (a.readLatency.bucket(i) != b.readLatency.bucket(i))
            return false;
    return true;
}

/**
 * Open-loop tail latency: the paper's closed-loop cores measure
 * throughput, but refresh lands in the tail -- a read that arrives
 * under tRFC waits out the blackout however idle the channel is. Grid
 * 1 sweeps mechanism x arrival process x rate with hot-row skew; p50
 * barely moves while p99/p99.9 separate the mechanisms. Grid 2 runs
 * DSARP under each address map, and the gate fails when row-ch and
 * burst-ch give bucket-identical histograms: the map axis would be
 * dead, i.e. byte addresses no longer reach the configured map.
 */
bool
tailLatency(const Grids &grids)
{
    std::printf("%-8s %-8s %8s %9s %8s %8s %8s %8s\n", "mech", "mode",
                "req/kcy", "reads", "mean", "p50", "p99", "p99.9");
    for (const Row &row : grids[0].rows) {
        const double rate = std::stod(row.value(keys::kTrafficRate));
        for (const std::string &mech : grids[0].mechs) {
            const LatencyHistogram &lat = row.runs.at(mech)[0].readLatency;
            const auto reads = static_cast<unsigned long long>(
                row.runs.at(mech)[0].readsCompleted);
            std::printf("%-8s %-8s %8.0f %9llu %8.1f %8.0f %8.0f %8.0f\n",
                        mech.c_str(), row.label.c_str(), rate, reads,
                        lat.mean(), lat.percentile(50), lat.percentile(99),
                        lat.percentile(99.9));
            std::printf("{\"bench\": \"fig_tail_latency\", \"mech\": \"%s\", "
                        "\"mode\": \"%s\", \"rate\": %.17g, \"reads\": %llu, "
                        "\"mean\": %.17g, \"p50\": %.17g, \"p99\": %.17g, "
                        "\"p999\": %.17g}\n",
                        mech.c_str(), row.label.c_str(), rate, reads,
                        lat.mean(), lat.percentile(50), lat.percentile(99),
                        lat.percentile(99.9));
        }
    }

    const std::vector<Row> &maps = grids[1].rows;
    std::printf("\nmap sensitivity (DSARP, poisson %.0f/kcy, hot rows):\n",
                std::stod(maps[0].value(keys::kTrafficRate)));
    std::printf("%-12s %9s %8s %8s %8s\n", "map", "reads", "p50", "p99",
                "p99.9");
    for (const Row &row : maps) {
        const RunResult &r = row.runs.at("DSARP")[0];
        std::printf("%-12s %9llu %8.0f %8.0f %8.0f\n", row.label.c_str(),
                    static_cast<unsigned long long>(r.readsCompleted),
                    r.readLatency.percentile(50),
                    r.readLatency.percentile(99),
                    r.readLatency.percentile(99.9));
    }
    if (histogramsIdentical(maps[0].runs.at("DSARP")[0],
                            maps[1].runs.at("DSARP")[0])) {
        std::printf("[FAIL: row-ch and burst-ch produced bucket-identical "
                    "latency histograms under hot-row traffic -- the "
                    "address-map axis is dead]\n");
        return false;
    }
    return true;
}

/** The tail-latency grids: @p mechs x (mode, rate) on burst-ch, then
 *  DSARP under every spec-agnostic map at the first rate. */
Grids
tailGrids(std::vector<std::string> mechs,
          std::initializer_list<const char *> modes,
          std::initializer_list<const char *> rates)
{
    const auto traffic = [](const char *mode, const char *rate,
                            const char *map) -> Sets {
        return {{keys::kAddressMap, map},
                {keys::kTrafficMode, mode},
                {keys::kTrafficRate, rate},
                {keys::kTrafficHotRowPct, "50"},
                {keys::kTrafficHotRows, "8"}};
    };
    Grid sweep{std::move(mechs), {}};
    for (const char *mode : modes)
        for (const char *rate : rates)
            sweep.rows.push_back({mode, traffic(mode, rate, "burst-ch")});
    Grid maps{{"DSARP"}, {}};
    for (const char *map : {"burst-ch", "row-ch", "perm-bank"})
        maps.rows.push_back({map, traffic("poisson", *rates.begin(), map)});
    return {sweep, maps};
}

// --- The rows --------------------------------------------------------

/** Every figure, in `all` order; @p base decides the computed grids. */
std::vector<Figure>
figures(const SystemConfig &base)
{
    std::vector<std::string> fig13 = {"REFab",  "REFpb",  "Elastic",
                                      "DARP",   "SARPab", "SARPpb",
                                      "DSARP",  "HiRA",   "NoREF"};
    std::vector<std::string> fig16 = {"REFab", "FGR2x", "FGR4x", "AR",
                                      "DSARP"};
    if (specSupportsSameBank(base.mem.dramSpec)) {
        fig13.insert(fig13.begin() + 2, "REFsb");
        fig16.insert(fig16.end() - 1, "REFsb");
    }
    const Grid ideal32{{"NoREF"}, {{"32Gb", k32Gb}}};
    std::vector<Row> tfawRows;
    for (int faw : {5, 10, 15, 20, 25, 30}) {
        tfawRows.push_back({std::to_string(faw), k32Gb});
        tfawRows.back().sets.emplace_back(keys::kTFawOverride,
                                          std::to_string(faw));
        tfawRows.back().sets.emplace_back(keys::kTRrdOverride,
                                          std::to_string(faw / 5));
    }
    std::vector<Row> staggerRows;
    for (const char *channels : {"1", "2", "4"}) {
        for (const auto &[label, stagger] :
             {std::pair{"aligned", "0"}, std::pair{"auto", "-1"}}) {
            staggerRows.push_back({label,
                                   {{keys::kChannels, channels},
                                    {keys::kChannelStagger, stagger}}});
        }
    }
    const Sets ddr4At8 = {{keys::kDramSpec, "DDR4-2400"},
                          {keys::kDensityGb, "8"}};
    Sets ddr4At2x = ddr4At8, ddr4At4x = ddr4At8;
    ddr4At2x.emplace_back(keys::kFgrRate, "2");
    ddr4At4x.emplace_back(keys::kFgrRate, "4");

    return {
        {"fig05", "Figure 5", "refresh latency (tRFCab) trend", "", nullptr,
         {}, trfcTrend},
        {"fig06", "Figure 6",
         "performance loss due to REFab vs ideal (no refresh)",
         "paper: loss rises with density and intensity; 8Gb avg 8.2%, "
         "32Gb avg 19.9%",
         mixes, {{{"NoREF", "REFab"}, densityRows()}}, refabLoss},
        {"fig07", "Figure 7",
         "performance loss due to REFab and REFpb vs ideal",
         "paper: REFpb < REFab loss at every density; REFpb still loses "
         "16.6% at 32Gb",
         mixes, {{{"NoREF", "REFab", "REFpb"}, densityRows()}}, refpbLoss},
        {"fig12", "Figure 12",
         "sorted per-workload normalized WS over REFab (8/16/32 Gb)",
         "paper shape: DSARP highest everywhere, curves rise with memory "
         "intensity,\n REFpb can dip below 1.0; gains grow with density",
         mixes,
         {{{"REFab", "REFpb", "DARP", "SARPpb", "DSARP"}, densityRows()}},
         sortedWs},
        {"fig13", "Figure 13", "average WS improvement over REFab (%)",
         "paper: Elastic ~1.8% only; SARPab substantial; DSARP within "
         "0.9/1.2/3.7% of NoREF at 8/16/32Gb",
         mixes, {{fig13, densityRows()}}, allMechanisms},
        {"fig14", "Figure 14", "energy per access (nJ) by mechanism",
         "paper: DSARP reduces energy/access by 3.0/5.2/9.0% vs REFab at "
         "8/16/32Gb",
         mixes,
         {{{"REFab", "REFpb", "Elastic", "DARP", "SARPab", "SARPpb",
            "DSARP", "NoREF"},
           densityRows()}},
         energy},
        {"fig15", "Figure 15",
         "DSARP WS improvement by memory intensity (%)",
         "paper: gain over REFab rises with intensity; gain over REFpb "
         "plateaus past 25%",
         mixes, {{{"REFab", "REFpb", "DSARP"}, densityRows()}}, byIntensity},
        {"fig16", "Figure 16",
         "FGR / AR / DSARP normalized WS (REFab = 1.0)",
         "paper: FGR2x ~0.96, FGR4x 0.85-0.92, AR ~0.99, DSARP above 1.0 "
         "and growing with density",
         mixes, {{fig16, densityRows()}}, fgr},
        {"table2", "Table 2",
         "max / gmean WS improvement over REFpb and REFab (%)",
         "paper gmean/pb: DARP 2.8/4.9/3.8, SARPpb 3.3/6.7/13.7, DSARP "
         "3.3/7.2/15.2 at 8/16/32Gb;\n gains grow with density, SARPpb "
         "overtakes DARP at high density",
         mixes,
         {{{"REFab", "REFpb", "DARP", "SARPpb", "DSARP"}, densityRows()}},
         summary},
        {"table3", "Table 3",
         "DSARP vs REFab by core count (32 Gb, intensive)",
         "paper: WS +16.0/20.0/27.2%, HS +16.1/20.7/27.9%, max-slowdown "
         "-14.9/19.4/24.1%,\n energy -10.2/8.1/8.5% for 2/4/8 cores -- all "
         "four metrics improve at every core count",
         intensive<5>,
         {{{"REFab", "DSARP"},
           axisRows(keys::kNumCores, {"2", "4", "8"}, k32Gb)}},
         coreCount},
        {"table4", "Table 4",
         "SARPpb over REFpb vs tFAW/tRRD (32 Gb, intensive)",
         "paper: 14.0 / 13.9 / 13.5 / 12.4 / 11.9 / 10.3% -- the benefit "
         "shrinks as tFAW/tRRD grow",
         intensive<9>, {{{"REFpb", "SARPpb"}, tfawRows}}, tfaw},
        {"table5", "Table 5",
         "SARPpb over REFpb vs subarrays-per-bank (32 Gb, intensive)",
         "paper: 0 / 3.8 / 8.5 / 12.4 / 14.9 / 16.2 / 16.9% -- monotonic, "
         "saturating growth",
         intensive<13>,
         {{{"REFpb", "SARPpb"},
           axisRows(keys::kSubarraysPerBank,
                    {"1", "2", "4", "8", "16", "32", "64"}, k32Gb)}},
         subarrays},
        {"table6", "Table 6", "DSARP at 64 ms retention (WS improvement)",
         "paper: gmean pb/ab = 1.0/3.3, 2.6/5.3, 8.0/9.1% at 8/16/32Gb -- "
         "smaller than 32 ms but consistent",
         mixes,
         {{{"REFab", "REFpb", "DSARP"},
           densityRows({{keys::kRetentionMs, "64"}})}},
         retention},
        {"sec612", "Section 6.1.2", "DARP component breakdown (WS over REFab)",
         "paper: out-of-order alone 3.2/3.9/3.0%; adding write-refresh "
         "parallelization +4.3/5.8/5.2%",
         mixes,
         {{{"REFab", "DARP"}, densityRows()},
          {{"DARP"}, densityRows({{keys::kDarpWriteRefresh, "0"}})}},
         darpBreakdown},
        {"spec_comparison", "Spec comparison",
         "tRFC trend and DSARP win across registered DRAM specs",
         "the per-spec trend mirrors Fig. 13: wins grow with density and "
         "clock; LPDDR4's native REFpb narrows the REFab gap DSARP exploits",
         mixes, {{{"REFab", "DSARP"}, specRows({"8", "16", "32"})}},
         specComparison},
        {"ablation_rank_stagger", "Ablation",
         "REFab cross-rank refresh phase (32 Gb)",
         "finding: near-aligned rank refreshes (large divisor) are the "
         "strongest REFab\n baseline; evenly-spread ranks overstate the "
         "losses refresh causes",
         intensive<21>,
         {ideal32,
          {{"REFab"},
           axisRows(keys::kRefabStaggerDivisor, {"2", "4", "8", "16", "64"},
                    k32Gb)}},
         rankStagger},
        {"ablation_watermarks", "Ablation",
         "write batch length vs DARP's write-refresh benefit (32 Gb)",
         "finding: longer drains give write-refresh parallelization a "
         "bigger window,\n at the cost of longer read-service gaps",
         intensive<31>,
         {{{"REFpb", "DARP"},
           axisRows(keys::kWriteHighWatermark, {"40", "48", "54", "60"},
                    k32Gb)}},
         watermarks},
        {"ablation_channel_stagger", "Ablation",
         "cross-channel refresh stagger, 8 Gb (refresh.channelStagger)",
         "finding: the even spread provably eliminates simultaneous "
         "refresh (REFab\n overlap ticks 0) and is free under DSARP, whose "
         "refresh already hides behind\n demand; under blocking REFab with "
         "channel-striped traffic it trades one\n batched system-wide "
         "window for rolling blackouts and loses WS -- align the\n "
         "baseline, stagger the mechanism",
         intensive<21>, {{{"REFab", "DSARP"}, staggerRows}}, channelStagger},
        {"extension_overlapped_refpb", "Extension",
         "overlapped per-bank refresh (footnote 5), 32 Gb",
         "extension finding: overlap compresses REFpb's serialized rank "
         "sweep; the\n incremental benefit on top of DSARP shows how much "
         "of the pathology DARP's\n scheduling already hides",
         intensive<41>,
         {ideal32,
          {{"REFpb", "DSARP"},
           axisRows(keys::kMaxOverlappedRefPb, {"1", "2", "4"}, k32Gb)}},
         overlappedRefpb},
        {"extension_hira", "Extension: HiRA",
         "hidden row activation vs REFab/DSARP per DRAM spec",
         "HiRA hides per-bank refreshes beneath demand ACTs to other "
         "subarrays of the same bank -- no chip modification; WS lands "
         "between REFab and DSARP, and its IPC must not fall below the "
         "REFab baseline",
         mixes,
         {{{"REFab", "DSARP", "HiRA"}, specRows({"32"})},
          {{"HiRA"},
           {{"HiRA@1x", ddr4At8},
            {"HiRA@2x", ddr4At2x},
            {"HiRA@4x", ddr4At4x}}},
          {{"FGR2x", "FGR4x"}, {{"DDR4-2400", ddr4At8}}}},
         hira},
        {"extension_refsb", "Extension: REFsb",
         "DDR5 same-bank refresh vs REFpb/HiRA/DSARP per DRAM spec",
         "REFsb refreshes one bank-group slice per command while other "
         "groups keep serving; WS must land between REFpb and DSARP, with "
         "HiRAsb pairing recovering a little more",
         mixes,
         {{{"REFpb", "REFsb", "HiRAsb", "HiRA", "DSARP"},
           specRows({"32"}, true)}},
         refsb},
        {"fig_tail_latency", "Tail latency",
         "open-loop arrivals x refresh mechanism (traffic.*)",
         "finding: p50 barely moves across mechanisms, but the p99/p99.9 "
         "tail\n carries the refresh penalty -- batched REFab blackouts "
         "stretch it, DSARP's\n parallelized refresh pulls it back toward "
         "the NoREF floor; the address map\n shifts the whole distribution "
         "because it decides which channel absorbs the\n hot rows",
         nullptr,
         tailGrids({"REFab", "REFpb", "DSARP", "NoREF"},
                   {"poisson", "bursty"}, {"20", "60", "120"}),
         tailLatency, tailGrids({"REFab", "DSARP"}, {"poisson"}, {"40"})},
    };
}

// --- Running a figure ------------------------------------------------

/** @p sys with @p sets applied through ExperimentConfig's key table. */
SystemConfig
configure(SystemConfig sys, const Sets &sets)
{
    ExperimentConfig exp;
    exp.sys = std::move(sys);
    for (const auto &[key, value] : sets)
        exp.set(key, value);
    return exp.sys;
}

/** The command line: the base config every figure starts from. */
struct Options
{
    SystemConfig base;
    int jobs = 1;
    bool smoke = false;
    /** Each simulation flag given, with the config key it set. */
    std::vector<std::pair<std::string, const char *>> keyed;

    bool
    given(const char *key) const
    {
        return std::any_of(keyed.begin(), keyed.end(), [&](const auto &f) {
            return std::strcmp(f.second, key) == 0;
        });
    }
};

/** The simulation flags: each sets one key of the base config. */
struct KeyFlag
{
    const char *flag;
    const char *key;
    int min;           ///< Smallest valid value of an integer flag.
    const char *what;  ///< A valid value; nullptr for a spec name.
};

constexpr KeyFlag kKeyFlags[] = {
    {"--spec", keys::kDramSpec, 0, nullptr},
    {"--channels", keys::kChannels, 1, "a positive channel count"},
    {"--sr-idle", keys::kSrIdleEntry, 0, "a non-negative cycle count"},
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (const auto &[flag, value] :
         flagPairs(argc, argv, 2,
                   {"--jobs", "--spec", "--channels", "--sr-idle",
                    "--grid"})) {
        if (flag == "--jobs") {
            opt.jobs = intFlag("--jobs", value, 1, "a positive worker count");
        } else if (flag == "--grid") {
            if (value != "full" && value != "smoke")
                DSARP_FATALF("--grid: '%s' is not \"full\" or \"smoke\"",
                             value.c_str());
            opt.smoke = value == "smoke";
        } else {
            for (const KeyFlag &kf : kKeyFlags) {
                if (flag != kf.flag)
                    continue;
                const std::string v =
                    kf.what ? std::to_string(intFlag(kf.flag, value, kf.min,
                                                     kf.what))
                            : DramSpecRegistry::instance().at(value).name;
                opt.base = configure(opt.base, {{kf.key, v}});
                opt.keyed.emplace_back(flag, kf.key);
            }
        }
    }
    return opt;
}

/** Refuse a flag @p fig would ignore or its own grid overrides. */
void
checkFlags(const Figure &fig, const Options &opt)
{
    const Grids &grids = opt.smoke ? fig.smoke : fig.grids;
    if (grids.empty() && opt.smoke)
        DSARP_FATALF("--grid: figure %s has no smoke grid", fig.id);
    for (const auto &[flag, key] : opt.keyed) {
        if (grids.empty())
            DSARP_FATALF("%s: figure %s simulates nothing", flag.c_str(),
                         fig.id);
        for (const Grid &grid : grids)
            for (const Row &row : grid.rows)
                for (const auto &set : row.sets)
                    if (std::strcmp(set.first, key) == 0)
                        DSARP_FATALF("%s: figure %s sets %s in its own grid",
                                     flag.c_str(), fig.id, key);
    }
}

/**
 * Run every point of @p grids in one sweep and hand each row its
 * workloads and runs. An open-loop point (traffic enabled) runs once;
 * a closed-loop row runs @p set's workloads for its core count.
 */
void
simulate(Grids &grids, WorkloadSet set, const SystemConfig &base,
         Runner &runner, int jobs)
{
    std::vector<SweepPoint> points;
    std::vector<std::pair<std::vector<RunResult> *, std::size_t>> cells;
    for (Grid &grid : grids) {
        for (Row &row : grid.rows) {
            const SystemConfig rowCfg = configure(base, row.sets);
            if (!rowCfg.traffic.enabled())
                row.workloads =
                    set(runner.workloadsPerCategory(), rowCfg.numCores);
            for (const std::string &mech : grid.mechs) {
                const SystemConfig cfg =
                    configure(rowCfg, {{keys::kPolicy, mech}});
                const std::size_t first = points.size();
                if (cfg.traffic.enabled())
                    points.push_back({cfg, {}});
                for (const Workload &w : row.workloads)
                    points.push_back({cfg, w});
                cells.emplace_back(&row.runs[mech], points.size() - first);
            }
        }
    }
    if (points.empty())
        return;
    std::fprintf(stderr, "  %zu runs x %d jobs\r", points.size(), jobs);
    const std::vector<RunResult> results =
        SweepRunner(runner, jobs).run(points);
    std::fprintf(stderr, "%40s\r", "");
    auto next = results.begin();
    for (const auto &[cell, n] : cells) {
        cell->assign(next, next + static_cast<std::ptrdiff_t>(n));
        next += static_cast<std::ptrdiff_t>(n);
    }
}

/** Print one figure; false when its gate failed. */
bool
run(Figure &fig, const Options &opt, Runner &runner)
{
    banner(fig.title, fig.what);
    if (opt.given(keys::kDramSpec))
        std::printf("[dram spec: %s]\n", opt.base.mem.dramSpec.c_str());
    if (opt.given(keys::kChannels))
        std::printf("[channels: %d]\n", opt.base.mem.org.channels);
    if (opt.base.mem.srIdleEntryCycles > 0)
        std::printf("[self-refresh idle entry: %d cycles]\n",
                    opt.base.mem.srIdleEntryCycles);
    Grids &grids = opt.smoke ? fig.smoke : fig.grids;
    simulate(grids, fig.workloads, opt.base, runner, opt.jobs);
    const bool ok = fig.table(grids);
    if (*fig.note)
        std::printf("\n[%s]\n", fig.note);
    if (!grids.empty())
        footer(runner);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string id = argc > 1 ? argv[1] : "";
    std::string ids;
    for (const Figure &fig : figures(SystemConfig())) {
        if (id == "--list")
            std::printf("%s\n", fig.id);
        ids += std::string(ids.empty() ? "" : " ") + fig.id;
    }
    if (id == "--list")
        return 0;

    const Options opt = parseOptions(argc, argv);
    std::vector<Figure> all = figures(opt.base);
    std::vector<Figure *> chosen;
    for (Figure &fig : all)
        if (id == "all" || id == fig.id)
            chosen.push_back(&fig);
    if (chosen.empty())
        DSARP_FATALF("unknown figure '%s'; usage: bench_figures "
                     "ID|all|--list [--jobs N] [--spec NAME] [--channels N] "
                     "[--sr-idle CYCLES] [--grid full|smoke]; ids: %s",
                     id.c_str(), ids.c_str());
    for (const Figure *fig : chosen)
        checkFlags(*fig, opt);

    Runner runner;
    bool ok = true;
    for (Figure *fig : chosen)
        ok = run(*fig, opt, runner) && ok;
    return ok ? 0 : 1;
}
