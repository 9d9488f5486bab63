#include "workloads.hh"

#include <sched.h>

#include <filesystem>
#include <functional>
#include <sstream>

#include "checks.hh"
#include "common/parallel.hh"
#include "config/json.hh"
#include "fleet/fleet_engine.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "sim/battery_model.hh"

namespace perfbench
{

using namespace pdnspot;

namespace
{

/** Operations per run at least, so the latency median is robust. */
constexpr size_t minOps = 200;

/** Set-ups per run; the median is reported. */
size_t
setupReps(const Options &opts)
{
    return opts.small ? 1 : 31;
}

/**
 * The timed set-up: loading the generated spec files with the
 * program's loaders, plus `extra`. The files are generated and
 * written once, untimed: file creation times the disk, not the
 * program. The first repetition runs before the rounds and its
 * inputs are the ones used; the others run one after each round, so
 * the median samples the host over the whole run rather than its
 * first moments.
 */
class Setup
{
  public:
    Setup(const Options &opts,
          std::function<void(Inputs &)> extra = {})
        : _opts(opts), _extra(std::move(extra))
    {
    }

    /** One timed repetition; returns its inputs. */
    Inputs
    repeat()
    {
        if (_times.empty())
            _generated = makeInputs(_opts);
        Inputs in = _generated;
        auto t0 = Clock::now();
        loadInputs(in);
        if (_extra)
            _extra(in);
        _times.push_back(secondsSince(t0));
        return in;
    }

    bool done() const { return _times.size() >= setupReps(_opts); }

    void report(Outcome &out) const
    {
        out.metric("setup_s", median(_times), "s");
    }

  private:
    Options _opts;
    std::function<void(Inputs &)> _extra;
    Inputs _generated;
    std::vector<double> _times;
};

/**
 * Operation times of a run. Operation k of every round is the same
 * work, so a round's time is the sum over k of operation k's median
 * over rounds: a burst of host noise lengthens one sample of one
 * operation instead of the round that a median of round sums would
 * pick.
 */
class RoundTimes
{
  public:
    /**
     * Time of operation k of the current round. With `latency` it is
     * also a sample of op_p50_ms.
     */
    void
    add(size_t k, double seconds, bool latency = true)
    {
        if (_byOp.size() <= k)
            _byOp.resize(k + 1);
        _byOp[k].push_back(seconds);
        if (latency)
            _opMs.push_back(1e3 * seconds);
    }

    void
    report(Outcome &out) const
    {
        double wall = 0.0;
        for (const std::vector<double> &samples : _byOp)
            wall += median(samples);
        out.metric("wall_s", wall, "s");
        out.metric("peak_rss_mb", peakRssMb(), "MiB");
        out.metric("op_p50_ms", median(_opMs), "ms");
    }

  private:
    std::vector<std::vector<double>> _byOp;
    std::vector<double> _opMs;
};

/**
 * Moves the calling thread round-robin over the CPUs this process may
 * use. A serial workload otherwise runs on whichever vCPU the
 * scheduler keeps it on, and on a shared host one vCPU can run a
 * third slower than another for minutes at a time; pinning operation
 * k of round r to CPU (k + r) mod n makes every operation sample
 * every CPU alike over a run. The process-wide pool is started first,
 * so its workers keep the whole CPU set.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        ParallelRunner::global();
        CPU_ZERO(&_all);
        if (sched_getaffinity(0, sizeof _all, &_all) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &_all))
                    _cpus.push_back(c);
    }

    ~CpuRotation() { release(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Run the calling thread on usable CPU k mod their count. */
    void
    pin(size_t k) const
    {
        if (_cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[k % _cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Let the calling thread run on every usable CPU again. */
    void
    release() const
    {
        if (_cpus.size() >= 2)
            sched_setaffinity(0, sizeof _all, &_all);
    }

  private:
    cpu_set_t _all;
    std::vector<int> _cpus;
};

/**
 * Whole rounds until `seconds` have passed and at least `minRounds`
 * ran, each followed by a set-up repetition until those are done.
 * A hard stop keeps a pathological slowdown inside the run time
 * limit.
 */
void
rounds(const Options &opts, size_t minRounds, Setup &setup,
       const std::function<void(size_t)> &round)
{
    auto start = Clock::now();
    for (size_t r = 0;
         r < minRounds || secondsSince(start) < opts.seconds; ++r) {
        round(r);
        if (!setup.done())
            setup.repeat();
        if (secondsSince(start) > 120.0)
            break;
    }
}

/** Streams CSV and per-PDN summaries, as the campaign CLI's sink. */
class ReportSink : public CampaignSink
{
  public:
    ReportSink(std::ostream &os, bool header) : _csv(os, header) {}

    void
    consume(CampaignCellResult cell) override
    {
        _summaries.add(cell);
        _csv.consume(std::move(cell));
    }

    size_t rows() const { return _csv.rows(); }
    const CampaignSummaryBuilder &summaries() const { return _summaries; }

  private:
    CampaignCsvSink _csv;
    CampaignSummaryBuilder _summaries;
};

size_t
ceilDiv(size_t a, size_t b)
{
    return (a + b - 1) / b;
}

double
summaryMetric(const ArchivePdnSummary &row, const std::string &metric)
{
    if (metric == "mean_etee")
        return row.meanEtee;
    if (metric == "mean_power_w")
        return row.meanPowerW;
    if (metric == "supply_energy_j")
        return row.supplyEnergyJ;
    if (metric == "battery_life_h")
        return row.batteryLifeHours;
    return static_cast<double>(row.cells);
}

Query
makeQuery(Rng &rng, const std::vector<ShardSet> &sets,
          size_t setsIngested)
{
    static const char *const pdns[] = {"IVR", "MBVR", "LDO", "I+MBVR",
                                       "FlexWatts"};
    // Thresholds sit below any value the model can produce for these
    // inputs, so every query selects its whole shard set.
    static const struct
    {
        const char *metric;
        double hi;
    } wheres[] = {{"mean_etee", 0.3},
                  {"mean_power_w", 0.05},
                  {"supply_energy_j", 0.0},
                  {"battery_life_h", 0.1},
                  {"cells", 0.0}};
    Query q;
    q.set = rng.index(setsIngested);
    q.hashPrefix = sets[q.set].specHash.substr(0, 6 + rng.index(10));
    q.pdn = pdns[rng.index(5)];
    const auto &w = wheres[rng.index(std::size(wheres))];
    q.metric = w.metric;
    q.threshold = rng.uniform(0.0, w.hi);
    return q;
}

} // namespace

std::string
engineCsv(const CampaignEngine &engine, const CampaignSpec &spec)
{
    std::ostringstream os;
    CampaignCsvSink sink(os);
    engine.run(spec, sink);
    return os.str();
}

double
reportedThreads(const JsonValue &report)
{
    const JsonValue *metrics = report.find("metrics");
    if (!metrics)
        return -1.0;
    for (const JsonValue &m : metrics->items()) {
        const JsonValue *name = m.find("name");
        const JsonValue *value = m.find("value");
        if (name && value && name->asString() == "runner.threads")
            return value->asNumber();
    }
    return -1.0;
}

ShardRun
runShard(const CampaignInput &c, const ParallelRunner &runner, size_t k,
         size_t n, double *reportMs)
{
    size_t cells = c.spec.cellCount();
    size_t first = cells * (k - 1) / n;
    size_t end = cells * k / n;

    MetricsRegistry registry;
    std::ostringstream csv;
    ReportSink sink(csv, k == 1);
    auto t0 = Clock::now();
    {
        MetricsInstallation install(registry);
        CampaignEngine(runner).run(c.spec, sink, first, end);
    }
    double wall = secondsSince(t0);

    auto r0 = Clock::now();
    RunReportInputs rin;
    rin.specPath = c.path;
    rin.specText = c.text;
    rin.specEcho = parseJson(c.text, c.path);
    rin.spec = &c.spec;
    rin.threads = runner.threadCount();
    rin.shardIndex = k;
    rin.shardCount = n;
    rin.firstCell = first;
    rin.endCell = end;
    rin.wallSeconds = wall;
    rin.rows = sink.rows();
    rin.batteryWh = 50.0;
    rin.summaries =
        sink.summaries().summaries(BatteryModel(wattHours(50.0)));
    rin.metrics = &registry;
    ShardRun run{writeJson(buildRunReport(rin)), csv.str()};
    if (reportMs)
        *reportMs = 1e3 * secondsSince(r0);
    return run;
}

ShardSet
makeShardSet(const CampaignInput &c, const ParallelRunner &runner,
             std::vector<double> *reportMs)
{
    ShardSet set;
    set.specHash = fnv1a64Hex(c.text);
    for (size_t k = 1; k <= c.shards; ++k) {
        double ms = 0.0;
        set.shards.push_back(runShard(c, runner, k, c.shards, &ms));
        if (reportMs)
            reportMs->push_back(ms);
    }
    set.unshardedCsv = engineCsv(CampaignEngine(runner), c.spec);
    return set;
}

std::string
runQuery(const ResultArchive &archive, const Query &q)
{
    std::vector<ArchiveEntry> selected;
    for (ArchiveEntry &e : archive.entries()) {
        std::string hash = e.specHash;
        if (hash.rfind("fnv1a64:", 0) == 0)
            hash = hash.substr(8);
        if (hash.rfind(q.hashPrefix, 0) != 0)
            continue;
        bool rowMatches = false;
        for (const ArchivePdnSummary &row : e.summaries)
            rowMatches = rowMatches ||
                         (row.pdn == q.pdn &&
                          summaryMetric(row, q.metric) > q.threshold);
        if (rowMatches)
            selected.push_back(std::move(e));
    }
    std::string csv;
    for (const ArchiveEntry &e : orderShardSet(std::move(selected)))
        csv += archive.readCsv(e);
    return csv;
}

Outcome
runCampaignPmu(const Options &opts)
{
    Outcome out;
    Setup setup(opts);
    Inputs in = setup.repeat();
    ParallelRunner serial(1);
    CampaignEngine engine(serial);
    CampaignChecker checker;

    RoundTimes times;
    CpuRotation cpus;
    size_t perRound = in.campaigns.size() + 1;
    rounds(opts, ceilDiv(minOps, perRound), setup, [&](size_t r) {
        std::vector<std::string> csvs;
        for (size_t i = 0; i < in.campaigns.size(); ++i) {
            cpus.pin(i + r);
            auto t0 = Clock::now();
            csvs.push_back(engineCsv(engine, in.campaigns[i].spec));
            times.add(i, secondsSince(t0));
        }
        cpus.release();
        out.attempted += in.campaigns.size();

        // The report operation, as `pdnspot_campaign --report`: the
        // gauge must read the serial engine's width.
        ++out.attempted;
        ShardRun report = runShard(in.campaigns.front(), serial, 1, 1);
        if (reportedThreads(parseJson(report.report, "report")) !=
            serial.threadCount())
            ++out.failed;

        for (size_t i = 0; i < in.campaigns.size(); ++i)
            checker.check(in.campaigns[i].spec, csvs[i], out);
        if (r == 0) {
            // Non-hybrid rows are mode-independent: rerun every spec
            // in static and oracle mode once per run.
            for (size_t i = 0; i < in.campaigns.size(); ++i) {
                for (SimMode m : {SimMode::Static, SimMode::Oracle}) {
                    CampaignSpec spec = in.campaigns[i].spec;
                    spec.mode = m;
                    std::string csv = engineCsv(engine, spec);
                    checker.check(spec, csv, out);
                    checkModesAgree(csvs[i], csv, out);
                }
            }
        }
    });
    setup.report(out);
    times.report(out);
    return out;
}

Outcome
runDesignSweep(const Options &opts)
{
    Outcome out;
    Setup setup(opts);
    Inputs in = setup.repeat();
    CampaignEngine engine(ParallelRunner::global());
    CampaignChecker checker;

    RoundTimes times;
    rounds(opts, ceilDiv(minOps, in.campaigns.size()), setup,
           [&](size_t) {
        std::vector<std::string> csvs;
        for (size_t i = 0; i < in.campaigns.size(); ++i) {
            auto t0 = Clock::now();
            csvs.push_back(engineCsv(engine, in.campaigns[i].spec));
            times.add(i, secondsSince(t0));
        }
        out.attempted += in.campaigns.size();
        for (size_t i = 0; i < in.campaigns.size(); ++i)
            checker.check(in.campaigns[i].spec, csvs[i], out);
    });
    setup.report(out);
    times.report(out);
    return out;
}

Outcome
runFleetMixed(const Options &opts)
{
    Outcome out;
    Setup setup(opts);
    Inputs in = setup.repeat();
    FleetEngine engine(ParallelRunner::global());
    FleetChecker checker;

    RoundTimes times;
    size_t buckets = static_cast<size_t>(in.fleet.bucketCount());
    rounds(opts, ceilDiv(minOps, buckets), setup, [&](size_t) {
        // One operation per bucket: the gap between progress
        // heartbeats, the first measured from the run call.
        size_t k = 0;
        auto last = Clock::now();
        FleetResult result = engine.run(
            in.fleet, [&](uint64_t, uint64_t) {
                auto now = Clock::now();
                times.add(k++, std::chrono::duration<double>(
                                   now - last).count());
                last = now;
                ++out.attempted;
            });
        // The CSV and summary writes are the round's last step.
        std::ostringstream csv, summary;
        result.writeCsv(csv);
        result.writeSummary(summary);
        times.add(k, secondsSince(last), false);
        checker.check(in.fleet, result, out);
    });
    setup.report(out);
    times.report(out);
    return out;
}

Outcome
runArchiveQuery(const Options &opts)
{
    Outcome out;
    std::vector<ShardSet> sets;
    ParallelRunner serial(1);
    // Every set-up makes the shard sets; only the first one's are
    // kept, since their reports carry their own wall times.
    Setup setup(opts, [&](Inputs &generated) {
        std::vector<ShardSet> made;
        for (const CampaignInput &c : generated.campaigns)
            made.push_back(makeShardSet(c, serial));
        if (sets.empty())
            sets = std::move(made);
    });
    setup.repeat();

    // One seeded query schedule, replayed by every round: after set
    // s is ingested, queries[s] run against the sets ingested so far.
    Rng rng(deriveSeed(opts.seed, "archive-query/queries"));
    const size_t queriesPerSet = 96;
    std::vector<std::vector<Query>> queries(sets.size());
    for (size_t s = 0; s < sets.size(); ++s)
        for (size_t q = 0; q < queriesPerSet; ++q)
            queries[s].push_back(makeQuery(rng, sets, s + 1));

    namespace fs = std::filesystem;
    std::string root = opts.workDir + "/archive";
    RoundTimes times;
    CpuRotation cpus;
    rounds(opts, ceilDiv(minOps, queriesPerSet * sets.size()), setup,
           [&](size_t r) {
        // Every round grows a fresh archive through the same
        // schedule, so latencies do not depend on how many rounds
        // fit in the run.
        fs::remove_all(root);
        ResultArchive archive(root);
        std::vector<std::string> ids;
        size_t k = 0;
        for (size_t s = 0; s < sets.size(); ++s) {
            cpus.pin(s + r);
            for (const ShardRun &shard : sets[s].shards) {
                auto t0 = Clock::now();
                ids.push_back(archive.ingest(shard.report, shard.csv));
                times.add(k++, secondsSince(t0), false);
                ++out.attempted;
            }
            for (const Query &query : queries[s]) {
                auto t0 = Clock::now();
                std::string csv = runQuery(archive, query);
                times.add(k++, secondsSince(t0));
                ++out.attempted;
                if (csv != sets[query.set].unshardedCsv)
                    out.fail("query did not reassemble shard set " +
                             std::to_string(query.set));
            }
        }
        cpus.release();

        // Every archived set reassembles; re-ingest is a no-op.
        for (size_t s = 0; s < sets.size(); ++s) {
            Query all{s, sets[s].specHash, "IVR", "cells", 0.0};
            if (runQuery(archive, all) != sets[s].unshardedCsv)
                out.fail("archived shard set " + std::to_string(s) +
                         " does not reassemble to the engine CSV");
        }
        size_t before = archive.entries().size();
        const std::string &id = ids[rng.index(ids.size())];
        ArchiveEntry entry = *archive.findRun(id);
        std::string again = archive.ingest(archive.readReportText(id),
                                           archive.readCsv(entry));
        if (again != id || archive.entries().size() != before)
            out.fail("re-ingesting run " + id + " changed the archive");
    });
    setup.report(out);
    times.report(out);
    return out;
}

} // namespace perfbench
