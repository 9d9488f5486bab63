#include "inputs.hh"

#include <cstdio>
#include <stdexcept>

#include "config/campaign_config.hh"
#include "config/fleet_config.hh"
#include "config/json.hh"

namespace perfbench
{

namespace
{

const char *const presets[] = {
    "fanless-tablet-4w", "ultraportable-15w", "h-series-45w"};

/** Battery-profile traces: short cycles of residency states. */
const char *const profileFamilies[] = {
    "video-playback-trace", "video-conferencing-trace",
    "web-browsing-trace", "light-gaming-trace"};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/**
 * The nine standardCampaignTraces families. The library seed is
 * fixed: a family's base trace, and so the amount of work, is the
 * same for every run seed. The run seed varies what is simulated
 * through ar_perturb seeds, platform grids and fleet
 * draws, never how much.
 */
const uint64_t librarySeed = 42;

std::vector<std::string>
families()
{
    std::vector<std::string> out = {"bursty-compute",
                                    "day-in-the-life"};
    for (uint64_t s = 0; s < 3; ++s)
        out.push_back("random-mix-" + std::to_string(librarySeed + s));
    for (const char *f : profileFamilies)
        out.push_back(f);
    return out;
}

/** One library trace entry with a repeat + seeded ar_perturb chain. */
std::string
traceEntry(Rng &rng, const std::string &family, const std::string &name,
           int repeat)
{
    uint64_t arSeed = rng.next() % 1000000;
    return "{\"library\": \"" + family + "\", \"seed\": " +
           std::to_string(librarySeed) + ", \"name\": \"" + name +
           "\", \"transforms\": [{\"repeat\": " +
           std::to_string(repeat) +
           "}, {\"ar_perturb\": {\"delta\": 0.1, \"seed\": " +
           std::to_string(arSeed) + "}}]}";
}

std::string
campaignText(const std::vector<std::string> &traces,
             const std::vector<std::string> &platforms,
             const std::string &mode)
{
    std::string t = "{\n  \"traces\": [\n";
    for (size_t i = 0; i < traces.size(); ++i)
        t += "    " + traces[i] + (i + 1 < traces.size() ? ",\n" : "\n");
    t += "  ],\n  \"platforms\": [";
    for (size_t i = 0; i < platforms.size(); ++i)
        t += (i ? ", " : "") + platforms[i];
    t += "],\n  \"pdns\": \"all\",\n  \"mode\": \"" + mode +
         "\",\n  \"tick_us\": 50.0\n}\n";
    return t;
}

/** "<tag><index>-<suffix>", e.g. a trace name unique in its spec. */
std::string
indexedName(char tag, size_t index, const std::string &suffix)
{
    std::string name(1, tag);
    name += std::to_string(index);
    name += '-';
    name += suffix;
    return name;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

void
addCampaign(const Options &opts, Inputs &in, const std::string &stem,
            std::string text, size_t shards = 1)
{
    CampaignInput c;
    c.path = opts.workDir + "/" + stem + ".json";
    c.text = std::move(text);
    c.shards = shards;
    writeFile(c.path, c.text);
    c.spec = pdnspot::loadCampaignSpecFile(c.path);
    in.campaigns.push_back(std::move(c));
}

/**
 * campaign-pmu: eight variants of every family (repeat 3 plus a
 * seeded ar_perturb). One serial PMU campaign per (variant, preset)
 * covers all nine families x five PDNs, so the 24 campaigns of a
 * round are alike in size; together they are 1080 cells.
 */
void
pmuStudy(const Options &opts, Inputs &in)
{
    Rng rng(deriveSeed(opts.seed, "campaign-pmu"));
    size_t variants = opts.small ? 2 : 8;
    std::vector<std::string> fams = families();
    if (opts.small)
        fams.resize(3);
    for (size_t v = 0; v < variants; ++v) {
        std::vector<std::string> traces;
        for (const std::string &family : fams)
            traces.push_back(traceEntry(rng, family,
                                        indexedName('v', v, family),
                                        opts.small ? 1 : 3));
        for (const char *preset : presets) {
            std::string stem = "pmu-";
            stem += indexedName('v', v, preset);
            addCampaign(opts, in, stem,
                        campaignText(traces, {quoted(preset)}, "pmu"));
        }
    }
}

/**
 * design-sweep: small campaigns over non-preset platform grids
 * (tdp_w / supply_v overrides) and ar_perturbed traces, alternating
 * static and oracle mode. Campaign c takes families c, c+1, ... so
 * every family appears equally often. Grids of 4, 8, 8 and 12
 * platforms (c mod 4) mix campaign sizes as a design study does; a
 * quarter of the campaigns are the largest, so the latency tail is a
 * property of the workload rather than of scheduling noise alone.
 */
void
designSweep(const Options &opts, Inputs &in)
{
    Rng rng(deriveSeed(opts.seed, "design-sweep"));
    std::vector<std::string> fams = families();
    const double supplies[] = {7.2, 7.6, 11.1, 11.4, 12.0, 15.2};
    size_t campaigns = opts.small ? 4 : 16;
    size_t nTraces = opts.small ? 2 : 8;
    const size_t grids[] = {4, 8, 8, 12};
    for (size_t c = 0; c < campaigns; ++c) {
        size_t nPlatforms = opts.small ? 2 : grids[c % 4];
        std::vector<std::string> traces;
        for (size_t t = 0; t < nTraces; ++t) {
            const std::string &family = fams[(c + t) % fams.size()];
            traces.push_back(traceEntry(rng, family,
                                        indexedName('t', t, family),
                                        opts.small ? 1 : 2));
        }
        std::vector<std::string> platforms;
        for (size_t p = 0; p < nPlatforms; ++p) {
            double tdp = 0.5 * static_cast<double>(static_cast<int>(
                                   2.0 * rng.uniform(4.5, 48.0)));
            double supply = supplies[rng.index(std::size(supplies))];
            platforms.push_back(
                "{\"preset\": \"" + std::string(presets[p % 3]) +
                "\", \"name\": \"grid" + std::to_string(p) +
                "\", \"tdp_w\": " + num(tdp) +
                ", \"supply_v\": " + num(supply) + "}");
        }
        char stem[32];
        std::snprintf(stem, sizeof stem, "sweep-%02zu", c);
        addCampaign(opts, in, stem,
                    campaignText(traces, platforms,
                                 c % 2 ? "oracle" : "static"));
    }
}

/**
 * fleet-mixed: a static, an oracle and a pmu cohort on every preset,
 * equal shares of the population. The first cohort of each preset
 * carries a battery small enough to empty within the horizon, so
 * death interpolation runs.
 */
std::string
fleetText(const Options &opts, bool small)
{
    Rng rng(deriveSeed(opts.seed, "fleet-mixed"));
    const char *modes[] = {"static", "oracle", "pmu"};
    const char *staticPdns[] = {"IVR", "MBVR", "LDO"};
    uint64_t count = small ? 2000 : 111111;

    std::string t = "{\n  \"bucket_ms\": 10000.0,\n  \"horizon_s\": " +
                    std::string(small ? "100.0" : "600.0") +
                    ",\n  \"tick_us\": 50.0,\n  \"seed\": " +
                    std::to_string(rng.next() % 1000000) +
                    ",\n  \"cohorts\": [\n";
    for (int i = 0; i < 9; ++i) {
        const char *preset = presets[i / 3];
        const char *mode = modes[i % 3];
        std::string pdn = i % 3 == 0 ? staticPdns[i / 3] : "FlexWatts";
        const char *family = profileFamilies[i % 4];
        double battery = i % 3 == 0
                             ? (small ? 0.01 : 0.06) * (1 + i / 3) *
                                   rng.uniform(0.95, 1.05)
                             : rng.uniform(40.0, 60.0);
        std::string name = std::string("c") + std::to_string(i) + "-" +
                           mode;
        t += "    {\"name\": \"" + name + "\", \"count\": " +
             std::to_string(count) + ", \"platform\": \"" + preset +
             "\", \"pdn\": \"" + pdn + "\", \"mode\": \"" + mode +
             "\", \"trace\": " +
             traceEntry(rng, family, name + "-trace", 1 + i % 2) +
             ", \"start_jitter_ms\": 60000.0, \"battery_wh\": " +
             num(battery) + ", \"battery_spread\": 0.1}" +
             (i < 8 ? ",\n" : "\n");
    }
    t += "  ]\n}\n";
    return t;
}

void
loadFleet(const Options &opts, Inputs &in, bool small)
{
    in.hasFleet = true;
    in.fleetPath = opts.workDir + "/fleet.json";
    writeFile(in.fleetPath, fleetText(opts, small));
    in.fleet = pdnspot::loadFleetSpecFile(in.fleetPath);
}

/**
 * archive-query: small static/oracle campaigns, each archived as a
 * shard set of 2-4 runs.
 */
void
archiveSets(const Options &opts, Inputs &in)
{
    Rng rng(deriveSeed(opts.seed, "archive-query"));
    std::vector<std::string> fams = families();
    size_t sets = opts.small ? 3 : 8;
    for (size_t s = 0; s < sets; ++s) {
        // Four traces x five PDNs: every shard of up to four holds
        // at least five consecutive cells, so each carries a summary
        // row of every PDN.
        std::vector<std::string> traces;
        for (size_t t = 0; t < 4; ++t) {
            const std::string &family = fams[(s + t) % fams.size()];
            traces.push_back(
                traceEntry(rng, family, indexedName('a', t, family), 1));
        }
        std::vector<std::string> platforms = {quoted(presets[s % 3])};
        if (s % 2)
            platforms.push_back("{\"preset\": \"h-series-45w\", "
                                "\"name\": \"h-alt\", \"tdp_w\": " +
                                num(20.0 + rng.uniform(0.0, 25.0)) +
                                "}");
        char stem[32];
        std::snprintf(stem, sizeof stem, "archive-%02zu", s);
        addCampaign(opts, in, stem,
                    campaignText(traces, platforms,
                                 s % 2 ? "oracle" : "static"),
                    2 + s % 3);
    }
}

} // namespace

Inputs
makeInputs(const Options &opts)
{
    Inputs in;
    if (opts.workload == "campaign-pmu")
        pmuStudy(opts, in);
    else if (opts.workload == "design-sweep")
        designSweep(opts, in);
    else if (opts.workload == "fleet-mixed")
        loadFleet(opts, in, opts.small);
    else if (opts.workload == "archive-query")
        archiveSets(opts, in);
    else
        throw std::runtime_error("unknown workload \"" + opts.workload +
                                 "\"");
    return in;
}

void
loadInputs(Inputs &in)
{
    for (CampaignInput &c : in.campaigns)
        c.spec = pdnspot::loadCampaignSpecFile(c.path);
    if (in.hasFleet)
        in.fleet = pdnspot::loadFleetSpecFile(in.fleetPath);
}

Inputs
companionFleet(const Options &opts)
{
    Inputs in;
    loadFleet(opts, in, true);
    return in;
}

Inputs
fleetCompanionCampaign(const Options &opts, const Inputs &fleet)
{
    // The cohort traces are re-declared by the same generator, so
    // the companion campaign simulates exactly the cohorts' traces.
    std::string text = readFile(fleet.fleetPath);
    pdnspot::JsonValue doc = pdnspot::parseJson(text, fleet.fleetPath);
    std::vector<std::string> traces;
    std::vector<std::string> platforms;
    for (const pdnspot::JsonValue &c : doc.find("cohorts")->items()) {
        traces.push_back(pdnspot::writeJsonCompact(*c.find("trace")));
        std::string p = quoted(c.find("platform")->asString());
        bool seen = false;
        for (const std::string &q : platforms)
            seen = seen || q == p;
        if (!seen)
            platforms.push_back(p);
    }
    Inputs in;
    addCampaign(opts, in, "fleet-companion",
                campaignText(traces, platforms, "static"));
    return in;
}

} // namespace perfbench
