#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "campaign/campaign_engine.hh"
#include "common/parallel.hh"
#include "fleet/fleet_engine.hh"
#include "inputs.hh"
#include "traced.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace pdnspot;

namespace
{

bool
report(const std::string &what, const Outcome &out)
{
    bool ok = out.correct && out.attempted > 0;
    std::cout << (ok ? "ok   " : "FAIL ") << what << ": attempted "
              << out.attempted << ", failed " << out.failed << "\n";
    for (const std::string &p : out.problems)
        std::cout << "     " << p << "\n";
    return ok;
}

bool
same(const std::string &what, const std::string &a, const std::string &b)
{
    bool ok = !a.empty() && a == b;
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    return ok;
}

std::string
fleetOutput(const FleetSpec &spec, const ParallelRunner &runner)
{
    FleetResult r = FleetEngine(runner).run(spec);
    std::ostringstream os;
    r.writeCsv(os);
    r.writeSummary(os);
    return os.str();
}

} // namespace

int
runSelftest(const Options &base)
{
    const char *workloads[] = {"campaign-pmu", "design-sweep",
                               "fleet-mixed", "archive-query"};
    bool ok = true;
    for (const char *w : workloads) {
        Options opts = base;
        opts.workload = w;
        opts.small = true;
        opts.seconds = 0.2;
        opts.workDir = base.workDir + "/" + w;
        std::filesystem::create_directories(opts.workDir);
        Outcome untraced = w == std::string("campaign-pmu")
                               ? runCampaignPmu(opts)
                           : w == std::string("design-sweep")
                               ? runDesignSweep(opts)
                           : w == std::string("fleet-mixed")
                               ? runFleetMixed(opts)
                               : runArchiveQuery(opts);
        ok = report(std::string(w) + " untraced", untraced) && ok;
        opts.trace = true;
        ok = report(std::string(w) + " traced", tracedRun(opts)) && ok;

        // Thread-count independence, which full runs do not repeat.
        unsigned n = std::max(2u, std::min(4u,
                                  std::thread::hardware_concurrency()));
        ParallelRunner one(1), many(n);
        Inputs in = makeInputs(opts);
        if (in.hasFleet) {
            ok = same(std::string(w) + " fleet CSV + summary, 1 vs " +
                          std::to_string(n) + " threads",
                      fleetOutput(in.fleet, one),
                      fleetOutput(in.fleet, many)) &&
                 ok;
            continue;
        }
        for (const CampaignInput &c : in.campaigns)
            ok = same(std::string(w) + " " + c.path + " CSV, 1 vs " +
                          std::to_string(n) + " threads",
                      engineCsv(CampaignEngine(one), c.spec),
                      engineCsv(CampaignEngine(many), c.spec)) &&
                 ok;
    }
    std::cout << (ok ? "selftest passed" : "selftest FAILED") << "\n";
    return ok ? 0 : 1;
}

} // namespace perfbench
