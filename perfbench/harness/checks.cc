#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "flexwatts/mode_switch.hh"
#include "pdnspot/platform.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"

namespace perfbench
{

using namespace pdnspot;

namespace
{

const char *const csvHeader =
    "trace,platform,pdn,mode,duration_s,supply_energy_j,"
    "nominal_energy_j,ivr_mode_s,ldo_mode_s,mode_switches,"
    "switch_time_s,switch_energy_j";

/** Relative tolerance of sums that repeat the program's arithmetic
 * in the same order. */
constexpr double sumTol = 1e-12;

/** Relative tolerance of sums the program accumulates tick by tick. */
constexpr double tickTol = 1e-9;

int
staticIndex(const std::string &pdn)
{
    if (pdn == "IVR")
        return 0;
    if (pdn == "MBVR")
        return 1;
    if (pdn == "LDO")
        return 2;
    if (pdn == "I+MBVR")
        return 3;
    return -1;
}

std::string
rowName(const CsvRow &r)
{
    return r.trace + "/" + r.platform + "/" + r.pdn + "/" + r.mode;
}

PairExpect
expectOn(const Platform &platform, const PhaseTrace &trace)
{
    PairExpect e;
    const OperatingPointModel &opm = platform.operatingPoints();
    const FlexWattsPdn &fw = platform.flexWatts();
    const PdnKind kinds[4] = {PdnKind::IVR, PdnKind::MBVR, PdnKind::LDO,
                              PdnKind::IplusMBVR};
    e.minP = INFINITY;
    // Plain doubles, summed in trace order: the reference the engine
    // rows must match.
    for (const TracePhase &phase : trace.phases()) {
        OperatingPointModel::Query q;
        q.tdp = platform.config().tdp;
        q.cstate = phase.cstate;
        q.type = phase.type;
        q.ar = canonicalActivityRatio(phase.ar);
        PlatformState state = opm.build(q);
        double d = inSeconds(phase.duration);
        e.durationS += d;
        for (int k = 0; k < 4; ++k) {
            EteeResult r = platform.pdn(kinds[k]).evaluate(state);
            e.staticJ[k] += inWatts(r.inputPower) * d;
            if (k == 0)
                e.nominalJ += inWatts(r.nominalPower) * d;
        }
        double pi = inWatts(fw.evaluate(state, HybridMode::IvrMode)
                                .inputPower);
        double pl = inWatts(fw.evaluate(state, HybridMode::LdoMode)
                                .inputPower);
        e.minJ += std::min(pi, pl) * d;
        e.maxJ += std::max(pi, pl) * d;
        e.maxP = std::max(e.maxP, std::max(pi, pl));
        e.minP = std::min(e.minP, std::min(pi, pl));
    }
    return e;
}

} // namespace

std::vector<CsvRow>
parseCampaignCsv(const std::string &csv, Outcome &out)
{
    std::vector<CsvRow> rows;
    std::istringstream in(csv);
    std::string line;
    if (!std::getline(in, line) || line != csvHeader) {
        out.fail("campaign CSV header mismatch: \"" + line + "\"");
        return rows;
    }
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::string cell;
        std::istringstream ls(line);
        while (std::getline(ls, cell, ','))
            f.push_back(cell);
        if (f.size() != 12) {
            out.fail("campaign CSV row with " +
                     std::to_string(f.size()) + " fields: " + line);
            continue;
        }
        auto d = [&](size_t i) { return std::strtod(f[i].c_str(), nullptr); };
        CsvRow r;
        r.trace = f[0];
        r.platform = f[1];
        r.pdn = f[2];
        r.mode = f[3];
        r.durationS = d(4);
        r.supplyJ = d(5);
        r.nominalJ = d(6);
        r.ivrModeS = d(7);
        r.ldoModeS = d(8);
        r.switches = d(9);
        r.switchTimeS = d(10);
        r.switchEnergyJ = d(11);
        rows.push_back(std::move(r));
    }
    return rows;
}

std::string
CampaignChecker::pairKey(const CampaignSpec &spec, size_t trace,
                         size_t platform)
{
    const PlatformConfig &p = spec.platforms[platform];
    char buf[96];
    std::snprintf(buf, sizeof buf, "@%.17g/%.17g/%.17g",
                  inWatts(p.tdp), inVolts(p.pdnParams.supplyVoltage),
                  p.predictorHysteresis);
    return spec.traces[trace].describe() + "@" + p.name + buf;
}

const PairExpect &
CampaignChecker::expect(const CampaignSpec &spec, size_t trace,
                        size_t platform)
{
    auto it = _cache.find(pairKey(spec, trace, platform));
    if (it != _cache.end())
        return it->second;
    // Fill every trace of this platform at once: one Platform build.
    Platform p(spec.platforms[platform]);
    for (size_t t = 0; t < spec.traces.size(); ++t)
        _cache[pairKey(spec, t, platform)] =
            expectOn(p, spec.traces[t].resolve());
    return _cache.at(pairKey(spec, trace, platform));
}

void
CampaignChecker::check(const CampaignSpec &spec, const std::string &csv,
                       Outcome &out)
{
    std::vector<CsvRow> rows = parseCampaignCsv(csv, out);
    if (rows.size() != spec.cellCount()) {
        out.fail("campaign CSV has " + std::to_string(rows.size()) +
                 " rows for " + std::to_string(spec.cellCount()) +
                 " cells");
        return;
    }
    const double switchS =
        inSeconds(ModeSwitchParams{}.totalLatency());
    size_t nPdns = spec.pdns.size();
    for (size_t i = 0; i < rows.size(); ++i) {
        const CsvRow &r = rows[i];
        size_t platform = i / (spec.traces.size() * nPdns);
        size_t trace = (i / nPdns) % spec.traces.size();
        if (r.trace != spec.traces[trace].name() ||
            r.platform != spec.platforms[platform].name ||
            r.mode != toString(spec.mode)) {
            out.fail("row out of canonical order: " + rowName(r));
            continue;
        }
        const PairExpect &e = expect(spec, trace, platform);
        if (!(r.supplyJ >= r.nominalJ && r.nominalJ > 0.0))
            out.fail("supply >= nominal > 0 violated: " + rowName(r));
        if (!closeRel(r.durationS, e.durationS, sumTol))
            out.fail("duration is not the phase sum: " + rowName(r));
        int k = staticIndex(r.pdn);
        if (k >= 0) {
            if (!closeRel(r.supplyJ, e.staticJ[k], sumTol) ||
                !closeRel(r.nominalJ, e.nominalJ, sumTol))
                out.fail("non-hybrid energy differs from the phase "
                         "sums: " + rowName(r));
            continue;
        }
        if (r.mode != "pmu") {
            // Oracle and static FlexWatts both run the best mode of
            // every phase, switching for free.
            if (!closeRel(r.supplyJ, e.minJ, sumTol))
                out.fail("FlexWatts energy is not sum d*min(P): " +
                         rowName(r));
            continue;
        }
        if (!closeRel(r.ivrModeS + r.ldoModeS, r.durationS, tickTol))
            out.fail("mode residencies do not cover the run: " +
                     rowName(r));
        if (!closeRel(r.switchTimeS, r.switches * switchS, tickTol))
            out.fail("switch time is not switches x flow: " +
                     rowName(r));
        double lo = e.minJ - r.switchTimeS * e.maxP;
        double hi = e.maxJ + r.switchEnergyJ;
        if (r.supplyJ < lo * (1 - tickTol) || r.supplyJ > hi * (1 + tickTol))
            out.fail("PMU energy outside [min - flows, max + flows]: " +
                     rowName(r));
    }
}

void
checkModesAgree(const std::string &csvA, const std::string &csvB,
                Outcome &out)
{
    std::vector<CsvRow> a = parseCampaignCsv(csvA, out);
    std::vector<CsvRow> b = parseCampaignCsv(csvB, out);
    if (a.size() != b.size()) {
        out.fail("mode CSVs differ in row count");
        return;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (staticIndex(a[i].pdn) < 0)
            continue;
        // Bit-identical numbers: the same shortest round-trip text.
        if (a[i].trace != b[i].trace || a[i].pdn != b[i].pdn ||
            a[i].durationS != b[i].durationS ||
            a[i].supplyJ != b[i].supplyJ ||
            a[i].nominalJ != b[i].nominalJ)
            out.fail("non-hybrid row differs between " + a[i].mode +
                     " and " + b[i].mode + ": " + rowName(a[i]));
    }
}

void
FleetChecker::check(const FleetSpec &spec, const FleetResult &result,
                    Outcome &out)
{
    if (_cohorts.empty()) {
        for (const FleetCohort &c : spec.cohorts) {
            Platform platform(c.platform);
            PhaseTrace trace = c.trace.resolve();
            PairExpect e = expectOn(platform, trace);
            CohortExpect ce;
            ce.cycleS = e.durationS;
            if (c.pdn == PdnKind::FlexWatts && c.mode == SimMode::Pmu) {
                IntervalSimulator sim(
                    platform.operatingPoints(), platform.config().tdp,
                    c.trace.tickOverride().value_or(spec.tick));
                PmuConfig cfg;
                cfg.tdp = platform.config().tdp;
                Pmu pmu(cfg, platform.predictor());
                SimResult r = sim.run(trace, platform.flexWatts(), pmu);
                double flowW = inWatts(ModeSwitchParams{}.flowPower);
                ce.meanW = inJoules(r.supplyEnergy) / e.durationS;
                ce.minW = std::min(flowW, e.minP);
                ce.maxW = std::max(flowW, e.maxP);
            } else if (c.pdn == PdnKind::FlexWatts) {
                // Static and oracle FlexWatts both run the best mode.
                ce.meanW = e.minJ / e.durationS;
                ce.minW = e.minP;
                ce.maxW = e.maxP;
            } else {
                int k = staticIndex(pdnKindToString(c.pdn));
                ce.meanW = e.staticJ[k] / e.durationS;
                // Per-phase static power bounds.
                ce.minW = INFINITY;
                ce.maxW = 0.0;
                const PdnModel &pdn = platform.pdn(c.pdn);
                for (const TracePhase &phase : trace.phases()) {
                    OperatingPointModel::Query q;
                    q.tdp = platform.config().tdp;
                    q.cstate = phase.cstate;
                    q.type = phase.type;
                    q.ar = canonicalActivityRatio(phase.ar);
                    double w = inWatts(
                        pdn.evaluate(platform.operatingPoints().build(q))
                            .inputPower);
                    ce.minW = std::min(ce.minW, w);
                    ce.maxW = std::max(ce.maxW, w);
                }
            }
            _cohorts.push_back(ce);
        }
    }

    double expectW = 0.0;
    double slackW = 0.0;
    double bucketS = inSeconds(spec.bucket);
    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        const CohortExpect &ce = _cohorts[c];
        double n = static_cast<double>(spec.cohorts[c].count);
        expectW += n * ce.meanW;
        // A session's bucket covers whole cycles plus a remainder
        // shorter than one cycle; only the remainder can stray from
        // the cycle mean, by at most the cohort's power range.
        slackW += n * std::min(ce.cycleS, bucketS) *
                  (ce.maxW - ce.minW) / bucketS;
    }

    uint64_t alive = result.sessions;
    uint64_t deaths = 0;
    bool anyDeath = false;
    double tStart = 0.0;
    for (const FleetBucketRow &row : result.buckets) {
        std::string at = "fleet bucket " + std::to_string(row.index);
        if (row.alive > alive)
            out.fail(at + ": sessions alive increased");
        else if (alive - row.alive != row.deaths)
            out.fail(at + ": deaths do not match the drop in alive");
        double dt = row.tEndS - tStart;
        if (!closeRel(row.energyJ, row.powerW * dt, sumTol))
            out.fail(at + ": energy is not power x bucket length");
        anyDeath = anyDeath || row.deaths > 0;
        if (!anyDeath && dt == bucketS &&
            std::fabs(row.powerW - expectW) > slackW + 1e-9 * expectW)
            out.fail(at + ": power " + std::to_string(row.powerW) +
                     " W strays from the cohort cycle means " +
                     std::to_string(expectW) + " W by more than " +
                     std::to_string(slackW) + " W");
        deaths += row.deaths;
        alive = row.alive;
        tStart = row.tEndS;
    }
    if (deaths != result.deaths)
        out.fail("fleet death total does not match its buckets");
}

} // namespace perfbench
