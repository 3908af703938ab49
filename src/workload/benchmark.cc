#include "workload/benchmark.hh"

#include "common/log.hh"

namespace dsarp {

namespace {

Benchmark
make(const char *name, double mpki, double row_locality,
     double writeback_fraction, int footprint_rows, bool random_access)
{
    Benchmark b;
    b.name = name;
    b.profile.mpki = mpki;
    b.profile.rowLocality = row_locality;
    b.profile.writebackFraction = writeback_fraction;
    b.profile.footprintRows = footprint_rows;
    b.profile.randomAccess = random_access;
    return b;
}

} // namespace

const std::vector<Benchmark> &
benchmarkTable()
{
    // Profiles are loosely modelled on the published MPKI / locality
    // behaviour of the named applications; the names are suffixed "-like"
    // because only the stream statistics are reproduced (README,
    // "Workload calibration").
    static const std::vector<Benchmark> table = {
        // Memory non-intensive (MPKI < 10).
        make("povray-like", 0.1, 0.80, 0.10, 64, false),
        make("perlbench-like", 0.8, 0.70, 0.20, 128, false),
        make("calculix-like", 1.5, 0.75, 0.15, 128, false),
        make("gobmk-like", 2.2, 0.55, 0.25, 256, false),
        make("gcc-like", 3.0, 0.60, 0.30, 512, false),
        make("sjeng-like", 4.5, 0.40, 0.25, 512, false),
        make("h264ref-like", 6.0, 0.70, 0.30, 512, false),
        make("astar-like", 8.5, 0.35, 0.30, 1024, false),

        // Memory intensive (MPKI >= 10).
        make("omnetpp-like", 12.0, 0.25, 0.35, 2048, false),
        make("tpcc-like", 14.0, 0.15, 0.40, 4096, false),
        make("leslie3d-like", 15.0, 0.65, 0.35, 2048, false),
        make("GemsFDTD-like", 18.0, 0.60, 0.40, 4096, false),
        make("milc-like", 22.0, 0.45, 0.40, 4096, false),
        make("soplex-like", 25.0, 0.50, 0.30, 4096, false),
        make("libquantum-like", 28.0, 0.85, 0.25, 2048, false),
        make("lbm-like", 30.0, 0.75, 0.50, 4096, false),
        make("mcf-like", 35.0, 0.20, 0.35, 8192, false),
        make("stream-like", 40.0, 0.90, 0.50, 4096, false),
        make("randacc-like", 45.0, 0.00, 0.30, 8192, true),
    };
    return table;
}

int
benchmarkIndex(const std::string &name)
{
    const auto &table = benchmarkTable();
    for (int i = 0; i < static_cast<int>(table.size()); ++i) {
        if (table[i].name == name)
            return i;
    }
    DSARP_FATAL("unknown benchmark name");
}

std::vector<int>
intensiveBenchmarks()
{
    std::vector<int> out;
    const auto &table = benchmarkTable();
    for (int i = 0; i < static_cast<int>(table.size()); ++i) {
        if (table[i].isIntensive())
            out.push_back(i);
    }
    return out;
}

std::vector<int>
nonIntensiveBenchmarks()
{
    std::vector<int> out;
    const auto &table = benchmarkTable();
    for (int i = 0; i < static_cast<int>(table.size()); ++i) {
        if (!table[i].isIntensive())
            out.push_back(i);
    }
    return out;
}

} // namespace dsarp
