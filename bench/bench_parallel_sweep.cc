/**
 * @file
 * Measures the ParallelRunner speedup on the sweep hot path: a dense
 * ETEE-vs-TDP sweep over all five PDN architectures, serial vs the
 * shared thread pool, plus parallel ETEE-table characterization.
 */

#include "bench_util.hh"

#include <chrono>

#include "common/parallel.hh"
#include "pdnspot/sweep.hh"

namespace
{

using namespace pdnspot;

std::vector<double>
denseTdps()
{
    std::vector<double> tdps;
    for (double w = 4.0; w <= 50.0; w += 0.25)
        tdps.push_back(w);
    return tdps;
}

/** Shared sweep loop: trajectory counters for any pool width. */
void
sweepBench(benchmark::State &state, unsigned nthreads)
{
    const Platform &pf = bench::platform();
    ParallelRunner pool(nthreads);
    SweepEngine engine(pf, pool);
    std::vector<PdnKind> kinds(allPdnKinds.begin(), allPdnKinds.end());
    std::vector<double> tdps = denseTdps();
    uint64_t points = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        SweepResult r = engine.eteeVsTdp(WorkloadType::MultiThread,
                                         0.56, tdps, kinds);
        benchmark::DoNotOptimize(r);
        points += tdps.size() * kinds.size();
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.counters["points_per_sec"] =
        ns > 0.0 ? static_cast<double>(points) / (ns * 1e-9) : 0.0;
    state.counters["threads"] = nthreads;
}

void
sweepSerial(benchmark::State &state)
{
    sweepBench(state, 1);
}

void
sweepParallel(benchmark::State &state)
{
    sweepBench(state, static_cast<unsigned>(state.range(0)));
}

void
eteeTableSerial(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    ParallelRunner serial(1);
    for (auto _ : state) {
        EteeTable table(pf.flexWatts(), pf.operatingPoints(), serial);
        benchmark::DoNotOptimize(table);
    }
}

void
eteeTableParallel(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    ParallelRunner pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        EteeTable table(pf.flexWatts(), pf.operatingPoints(), pool);
        benchmark::DoNotOptimize(table);
    }
}

BENCHMARK(sweepSerial);
BENCHMARK(sweepParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"});
BENCHMARK(eteeTableSerial);
BENCHMARK(eteeTableParallel)->Arg(2)->Arg(4)->Arg(8);

void
printSummary()
{
    bench::banner("ParallelRunner sweep fan-out");
    std::cout << "hardware threads: "
              << ParallelRunner::global().threadCount() << "\n"
              << "dense sweep: " << denseTdps().size() << " TDPs x "
              << allPdnKinds.size() << " PDN kinds\n\n";
}

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printSummary)
