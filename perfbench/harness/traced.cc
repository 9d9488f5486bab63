#include "traced.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "checks.hh"
#include "common/parallel.hh"
#include "config/campaign_config.hh"
#include "config/fleet_config.hh"
#include "config/json.hh"
#include "fleet/fleet_engine.hh"
#include "obs/metrics.hh"
#include "pdnspot/platform.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"
#include "workload/phase_soa.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace pdnspot;

namespace
{

/**
 * In-memory span log. Spans carry name, start, end, parent and the
 * id of the run (pass) they belong to; they are written once, as a
 * trace-event file, when the traced run ends. Disabled, it records
 * nothing (the untraced pass of the overhead measurement).
 */
class SpanLog
{
  public:
    bool enabled = true;
    uint64_t runId = 0;

    /** Open a span under the innermost open one; returns its id. */
    int
    open(const std::string &name)
    {
        if (!enabled)
            return -1;
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, nowUs(), 0.0, parent, runId});
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        _spans[static_cast<size_t>(id)].endUs = nowUs();
        _stack.pop_back();
    }

    /** Record an interval measured elsewhere (fleet buckets). */
    void
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end)
    {
        if (!enabled)
            return;
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, us(start), us(end), parent, runId});
    }

    /**
     * Self time per span name, in microseconds: each span's length
     * minus the part its direct children cover.
     */
    std::map<std::string, double>
    selfUs() const
    {
        std::map<std::string, double> self;
        for (const Span &s : _spans) {
            double d = s.endUs - s.startUs;
            self[s.name] += d;
            if (s.parent >= 0)
                self[_spans[static_cast<size_t>(s.parent)].name] -= d;
        }
        return self;
    }

    void
    write(const std::string &path) const
    {
        std::ostringstream os;
        os << "{\"traceEvents\": [\n";
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                          "\"pid\": 1, \"tid\": 1, \"args\": "
                          "{\"span\": %zu, \"parent\": %d, \"run\": "
                          "%llu}}",
                          s.startUs, s.endUs - s.startUs, i, s.parent,
                          static_cast<unsigned long long>(s.runId));
            os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
               << "\", \"cat\": \"perfbench\", " << buf;
        }
        os << "\n]}\n";
        writeFile(path, os.str());
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double endUs;
        int parent;
        uint64_t runId;
    };

    double us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - _t0).count();
    }
    double nowUs() const { return us(Clock::now()); }

    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** Times `fn` as span `name`; returns its host seconds. */
template <typename Fn>
double
timed(SpanLog &log, const std::string &name, Fn &&fn)
{
    int id = log.open(name);
    auto t0 = Clock::now();
    fn();
    double s = secondsSince(t0);
    log.close(id);
    return s;
}

/** Work units behind each span name (the per-unit denominators). */
using Units = std::map<std::string, double>;

const char *
kindMetric(PdnKind kind)
{
    switch (kind) {
      case PdnKind::IVR: return "IVR";
      case PdnKind::MBVR: return "MBVR";
      case PdnKind::LDO: return "LDO";
      case PdnKind::IplusMBVR: return "IMBVR";
      case PdnKind::FlexWatts: return "FlexWatts";
    }
    return "?";
}

/** Layer time of one layered campaign pass, and its engine wall. */
struct PassTimes
{
    double layerS = 0.0;
    double engineS = 0.0;
};

/**
 * Assemble one spec's CSV layer by layer — load, resolve, SoA,
 * Platform, simulate each cell, CSV — then run the engine on the
 * same spec and require byte-identical output.
 */
PassTimes
layeredCampaign(SpanLog &log, Units &units, const CampaignInput &c,
                const CampaignEngine &engine, Outcome &out)
{
    PassTimes t;
    int top = log.open("campaign.layered");
    CampaignSpec spec;
    timed(log, "config.spec_load",
          [&] { spec = loadCampaignSpecFile(c.path); });
    units["config.spec_load"] += 1;

    std::vector<PhaseTrace> traces(spec.traces.size());
    std::vector<PhaseSoA> soas(spec.traces.size());
    for (size_t i = 0; i < spec.traces.size(); ++i) {
        t.layerS += timed(log, "workload.resolve",
                          [&] { traces[i] = spec.traces[i].resolve(); });
        t.layerS += timed(log, "workload.soa_build",
                          [&] { soas[i] = PhaseSoA(traces[i]); });
    }
    units["workload.resolve"] += static_cast<double>(traces.size());
    units["workload.soa_build"] += static_cast<double>(traces.size());

    std::ostringstream csv;
    CampaignCsvSink sink(csv);
    for (const PlatformConfig &config : spec.platforms) {
        std::unique_ptr<Platform> platform;
        t.layerS += timed(log, "pdnspot.platform_build", [&] {
            platform = std::make_unique<Platform>(config);
        });
        units["pdnspot.platform_build"] += 1;
        for (size_t i = 0; i < spec.traces.size(); ++i) {
            IntervalSimulator sim(
                platform->operatingPoints(), config.tdp,
                spec.traces[i].tickOverride().value_or(spec.tick));
            for (PdnKind kind : spec.pdns) {
                CampaignCellResult cell;
                cell.trace = spec.traces[i].name();
                cell.platform = config.name;
                cell.pdn = kind;
                cell.mode = spec.mode;
                bool fw = kind == PdnKind::FlexWatts;
                if (fw && spec.mode == SimMode::Pmu) {
                    PmuConfig cfg;
                    cfg.tdp = config.tdp;
                    Pmu pmu(cfg, platform->predictor());
                    t.layerS += timed(log, "sim.pmu", [&] {
                        cell.sim = sim.run(traces[i],
                                           platform->flexWatts(), pmu);
                    });
                    units["sim.pmu"] +=
                        inMilliseconds(traces[i].totalDuration());
                } else if (fw && spec.mode == SimMode::Oracle) {
                    t.layerS += timed(log, "sim.oracle", [&] {
                        cell.sim =
                            sim.runOracle(soas[i], platform->flexWatts());
                    });
                    units["sim.oracle"] +=
                        static_cast<double>(soas[i].phaseCount());
                } else {
                    t.layerS += timed(log, "sim.static", [&] {
                        cell.sim = sim.run(soas[i], platform->pdn(kind));
                    });
                    units["sim.static"] +=
                        static_cast<double>(soas[i].phaseCount());
                }
                t.layerS += timed(log, "campaign.csv", [&] {
                    sink.consume(std::move(cell));
                });
                units["campaign.csv"] += 1;
            }
        }
    }

    std::string engineOut;
    t.engineS = timed(log, "campaign.engine",
                      [&] { engineOut = engineCsv(engine, spec); });
    if (engineOut != csv.str())
        out.fail("layer-by-layer CSV differs from the engine CSV for " +
                 c.path);
    log.close(top);
    return t;
}

/** Per-unit costs of the state-level layers on one (platform, trace). */
void
microLayers(SpanLog &log, Units &units, const Platform &platform,
            const PhaseTrace &trace, const PhaseSoA &soa, Time tick)
{
    const std::vector<TracePhase> &unique = soa.uniquePhases();
    // Enough repetitions for ~1e4 calls per loop: a clock read per
    // loop, not per call.
    size_t reps = std::max<size_t>(1, 10000 / unique.size());
    double calls = static_cast<double>(reps * unique.size());
    std::vector<PlatformState> states(unique.size());
    timed(log, "power.opm_build", [&] {
        for (size_t r = 0; r < reps; ++r)
            for (size_t u = 0; u < unique.size(); ++u) {
                OperatingPointModel::Query q;
                q.tdp = platform.config().tdp;
                q.cstate = unique[u].cstate;
                q.type = unique[u].type;
                q.ar = unique[u].ar;
                states[u] = platform.operatingPoints().build(q);
            }
    });
    units["power.opm_build"] += calls;

    double sink = 0.0;
    for (PdnKind kind : allPdnKinds) {
        const PdnModel &pdn = platform.pdn(kind);
        std::string name = std::string("pdn.evaluate.") + kindMetric(kind);
        timed(log, name, [&] {
            for (size_t r = 0; r < reps; ++r)
                for (const PlatformState &s : states)
                    sink += inWatts(pdn.evaluate(s).inputPower);
        });
        units[name] += calls;
    }
    const FlexWattsPdn &fw = platform.flexWatts();
    timed(log, "flexwatts.best_mode", [&] {
        for (size_t r = 0; r < reps; ++r)
            for (const PlatformState &s : states)
                sink += static_cast<double>(fw.bestMode(s));
    });
    units["flexwatts.best_mode"] += calls;
    timed(log, "flexwatts.evaluate_mode", [&] {
        for (size_t r = 0; r < reps; ++r)
            for (const PlatformState &s : states)
                for (HybridMode m : {HybridMode::IvrMode,
                                     HybridMode::LdoMode})
                    sink += inWatts(fw.evaluate(s, m).inputPower);
    });
    units["flexwatts.evaluate_mode"] += 2 * calls;

    // The PMU firmware alone, driven at the simulator's tick.
    PmuConfig cfg;
    cfg.tdp = platform.config().tdp;
    Pmu pmu(cfg, platform.predictor());
    double advances = 0.0;
    timed(log, "pmu.advance", [&] {
        Time now;
        for (const TracePhase &phase : trace.phases()) {
            Time end = now + phase.duration;
            for (; now < end; now += tick) {
                pmu.advanceTo(now, phase);
                advances += 1.0;
            }
        }
    });
    units["pmu.advance"] += advances;
    sink += static_cast<double>(pmu.switchFlow().switchCount());

    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp, tick);
    timed(log, "sim.static", [&] {
        sink += inJoules(sim.run(soa, platform.pdn(PdnKind::IVR))
                             .supplyEnergy);
    });
    units["sim.static"] += static_cast<double>(soa.phaseCount());
    timed(log, "sim.oracle", [&] {
        sink += inJoules(sim.runOracle(soa, fw).supplyEnergy);
    });
    units["sim.oracle"] += static_cast<double>(soa.phaseCount());
    Pmu simPmu(cfg, platform.predictor());
    timed(log, "sim.pmu", [&] {
        sink += inJoules(sim.run(trace, fw, simPmu).supplyEnergy);
    });
    units["sim.pmu"] += inMilliseconds(trace.totalDuration());
    if (!(sink > 0.0))
        throw std::runtime_error("micro layers produced no energy");
}

struct FleetLayers
{
    double firstBucketMs = 0.0;
    double bucketMs = 0.0;
    double nsPerSessionBucket = 0.0;
    double csvMs = 0.0;
};

FleetLayers
fleetLayers(SpanLog &log, Units &units, const Inputs &in, Outcome &out)
{
    FleetLayers f;
    FleetSpec spec;
    timed(log, "config.spec_load",
          [&] { spec = loadFleetSpecFile(in.fleetPath); });
    units["config.spec_load"] += 1;

    FleetEngine engine(ParallelRunner::global());
    std::vector<Clock::time_point> beats;
    FleetResult result;
    int run = log.open("fleet.run");
    auto start = Clock::now();
    result = engine.run(spec, [&](uint64_t, uint64_t) {
        beats.push_back(Clock::now());
    });
    auto prev = start;
    for (Clock::time_point b : beats) {
        log.add("fleet.bucket", prev, b);
        prev = b;
    }
    log.close(run);

    std::vector<double> gapsMs;
    double gapS = 0.0, sessionBuckets = 0.0;
    for (size_t b = 1; b < beats.size(); ++b) {
        double s = std::chrono::duration<double>(beats[b] - beats[b - 1])
                       .count();
        gapsMs.push_back(1e3 * s);
        gapS += s;
        sessionBuckets += static_cast<double>(result.buckets[b - 1].alive);
    }
    if (!beats.empty())
        f.firstBucketMs =
            1e3 * std::chrono::duration<double>(beats[0] - start).count();
    f.bucketMs = median(gapsMs);
    f.nsPerSessionBucket =
        sessionBuckets > 0 ? 1e9 * gapS / sessionBuckets : 0.0;

    f.csvMs = 1e3 * timed(log, "fleet.csv", [&] {
        std::ostringstream csv, summary;
        result.writeCsv(csv);
        result.writeSummary(summary);
    });
    FleetChecker().check(spec, result, out);
    return f;
}

struct StoreLayers
{
    double ingestMs = 0.0;
    double entriesMs = 0.0;
    double readCsvUs = 0.0;
    double indexBytes = 0.0;
    double reportBuildMs = 0.0;
};

StoreLayers
storeLayers(SpanLog &log, const Options &opts,
            const std::vector<CampaignInput> &campaigns,
            const ParallelRunner &runner, Outcome &out)
{
    StoreLayers st;
    std::vector<ShardSet> sets;
    std::vector<double> reportMs;
    for (CampaignInput c : campaigns) {
        // At least two shards, so reassembly has a set to order.
        c.shards = std::max<size_t>(2, c.shards);
        timed(log, "campaign.shard_runs", [&] {
            sets.push_back(makeShardSet(c, runner, &reportMs));
        });
    }
    st.reportBuildMs = median(reportMs);

    std::string root = opts.workDir + "/traced-archive";
    std::filesystem::remove_all(root);
    ResultArchive archive(root);
    std::vector<double> ingest, entries, reads;
    for (const ShardSet &set : sets)
        for (const ShardRun &shard : set.shards)
            ingest.push_back(1e3 * timed(log, "store.ingest", [&] {
                archive.ingest(shard.report, shard.csv);
            }));
    std::vector<ArchiveEntry> all;
    for (int i = 0; i < 20; ++i)
        entries.push_back(1e3 * timed(log, "store.entries",
                                      [&] { all = archive.entries(); }));
    for (const ArchiveEntry &e : all)
        reads.push_back(1e6 * timed(log, "store.read_csv",
                                    [&] { archive.readCsv(e); }));
    for (size_t s = 0; s < sets.size(); ++s) {
        Query q{s, sets[s].specHash, "IVR", "cells", 0.0};
        if (runQuery(archive, q) != sets[s].unshardedCsv)
            out.fail("traced archive set " + std::to_string(s) +
                     " does not reassemble");
    }
    st.ingestMs = median(ingest);
    st.entriesMs = median(entries);
    st.readCsvUs = median(reads);
    st.indexBytes =
        static_cast<double>(std::filesystem::file_size(archive.indexPath()));
    return st;
}

double
perUnit(const std::map<std::string, double> &selfUs, const Units &units,
        const std::string &name, double scale)
{
    auto s = selfUs.find(name);
    auto u = units.find(name);
    if (s == selfUs.end() || u == units.end() || u->second <= 0.0)
        return 0.0;
    return s->second * scale / u->second;
}

} // namespace

Outcome
tracedRun(const Options &opts)
{
    Outcome out;
    Inputs in = makeInputs(opts);
    Inputs campaigns = in.hasFleet ? fleetCompanionCampaign(opts, in) : in;
    Inputs fleet = in.hasFleet ? in : companionFleet(opts);

    ParallelRunner serial(1);
    const ParallelRunner &runner = opts.workload == "campaign-pmu"
                                       ? serial
                                       : ParallelRunner::global();
    CampaignEngine engine(runner);

    SpanLog log;
    Units units;

    // Layered passes, repeated for the run time. Each pass is one
    // round of the workload's operations: every spec layered, plus
    // the report operation of the untraced campaign-pmu run.
    std::vector<double> tracedPassS;
    double layerS = 0.0, engineS = 0.0;
    auto start = Clock::now();
    for (uint64_t pass = 0;
         pass == 0 || secondsSince(start) < opts.seconds / 2; ++pass) {
        log.runId = pass;
        auto p0 = Clock::now();
        for (const CampaignInput &c : campaigns.campaigns) {
            PassTimes t = layeredCampaign(log, units, c, engine, out);
            layerS += t.layerS;
            engineS += t.engineS;
            ++out.attempted;
        }
        tracedPassS.push_back(secondsSince(p0));
        ++out.attempted;
        ShardRun report;
        timed(log, "obs.report_op", [&] {
            report = runShard(campaigns.campaigns.front(), runner, 1, 1);
        });
        if (reportedThreads(parseJson(report.report, "report")) !=
            runner.threadCount())
            ++out.failed;
    }

    // The same pass with recording off: the tracing overhead.
    log.enabled = false;
    Units scratchUnits;
    Outcome scratchOut;
    auto u0 = Clock::now();
    for (const CampaignInput &c : campaigns.campaigns)
        layeredCampaign(log, scratchUnits, c, engine, scratchOut);
    double untracedPassS = secondsSince(u0);
    log.enabled = true;

    // Program counters for the same specs: platform builds per config.
    double buildsPerConfig = 0.0;
    for (const CampaignInput &c : campaigns.campaigns) {
        MetricsRegistry registry;
        {
            MetricsInstallation install(registry);
            timed(log, "campaign.engine_counted",
                  [&] { engineCsv(engine, c.spec); });
        }
        buildsPerConfig +=
            static_cast<double>(
                registry.counterValue(Metric::CampaignPlatformBuilds)) /
            static_cast<double>(c.spec.platforms.size());
    }
    buildsPerConfig /= static_cast<double>(campaigns.campaigns.size());

    // State-level layers on the first specs' (platform, trace) pairs.
    log.runId = 1000;
    size_t pairs = 0;
    for (const CampaignInput &c : campaigns.campaigns) {
        if (pairs >= 6)
            break;
        Platform platform(c.spec.platforms.front());
        PhaseTrace trace = c.spec.traces.front().resolve();
        PhaseSoA soa(trace);
        microLayers(log, units, platform, trace, soa,
                    c.spec.traces.front().tickOverride().value_or(
                        c.spec.tick));
        ++pairs;
    }

    log.runId = 2000;
    FleetLayers fl = fleetLayers(log, units, fleet, out);

    log.runId = 3000;
    std::vector<CampaignInput> archived(
        campaigns.campaigns.begin(),
        campaigns.campaigns.begin() +
            static_cast<std::ptrdiff_t>(
                std::min<size_t>(4, campaigns.campaigns.size())));
    StoreLayers st = storeLayers(log, opts, archived, runner, out);

    std::string tracePath = opts.workDir + "/trace-" + opts.workload +
                            "-" + std::to_string(opts.seed) + ".json";
    log.write(tracePath);

    std::map<std::string, double> self = log.selfUs();
    out.metric("config.spec_load_ms",
               perUnit(self, units, "config.spec_load", 1e-3), "ms");
    out.metric("workload.resolve_us",
               perUnit(self, units, "workload.resolve", 1.0), "us");
    out.metric("workload.soa_build_us",
               perUnit(self, units, "workload.soa_build", 1.0), "us");
    out.metric("pdnspot.platform_build_ms",
               perUnit(self, units, "pdnspot.platform_build", 1e-3), "ms");
    out.metric("power.opm_build_ns",
               perUnit(self, units, "power.opm_build", 1e3), "ns");
    for (PdnKind kind : allPdnKinds)
        out.metric(std::string("pdn.evaluate_ns.") + kindMetric(kind),
                   perUnit(self, units,
                           std::string("pdn.evaluate.") + kindMetric(kind),
                           1e3),
                   "ns");
    out.metric("flexwatts.best_mode_ns",
               perUnit(self, units, "flexwatts.best_mode", 1e3), "ns");
    out.metric("flexwatts.evaluate_mode_ns",
               perUnit(self, units, "flexwatts.evaluate_mode", 1e3), "ns");
    out.metric("pmu.advance_ns",
               perUnit(self, units, "pmu.advance", 1e3), "ns");
    out.metric("sim.pmu_ns_per_sim_ms",
               perUnit(self, units, "sim.pmu", 1e3), "ns/ms");
    out.metric("sim.static_ns_per_phase",
               perUnit(self, units, "sim.static", 1e3), "ns");
    out.metric("sim.oracle_ns_per_phase",
               perUnit(self, units, "sim.oracle", 1e3), "ns");
    double passes = static_cast<double>(tracedPassS.size());
    double specs = passes * static_cast<double>(campaigns.campaigns.size());
    out.metric("campaign.engine_overhead_ms",
               1e3 * (engineS - layerS) / specs, "ms");
    out.metric("campaign.parallel_efficiency",
               layerS / (runner.threadCount() * engineS), "ratio");
    out.metric("campaign.platform_builds_per_config", buildsPerConfig,
               "count");
    out.metric("campaign.csv_ns_per_row",
               perUnit(self, units, "campaign.csv", 1e3), "ns");
    out.metric("fleet.first_bucket_ms", fl.firstBucketMs, "ms");
    out.metric("fleet.bucket_ms", fl.bucketMs, "ms");
    out.metric("fleet.ns_per_session_bucket", fl.nsPerSessionBucket, "ns");
    out.metric("fleet.csv_ms", fl.csvMs, "ms");
    out.metric("store.ingest_ms", st.ingestMs, "ms");
    out.metric("store.entries_ms", st.entriesMs, "ms");
    out.metric("store.read_csv_us", st.readCsvUs, "us");
    out.metric("store.index_bytes", st.indexBytes, "bytes");
    out.metric("obs.report_build_ms", st.reportBuildMs, "ms");
    out.metric("bench.trace_overhead_ms",
               1e3 * (median(tracedPassS) - untracedPassS), "ms");
    return out;
}

} // namespace perfbench
