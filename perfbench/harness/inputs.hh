/**
 * @file
 * Seeded input generation. Every spec, trace variant, platform grid,
 * fleet cohort and shard split is drawn from the run seed and
 * written as a spec file; the program only ever sees those files,
 * loaded through the same loaders its CLIs use.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "common.hh"
#include "fleet/fleet_spec.hh"

namespace perfbench
{

/** One generated campaign spec: its file and the loaded spec. */
struct CampaignInput
{
    std::string path;
    std::string text;
    pdnspot::CampaignSpec spec;

    /** Shard count of this spec's archived run (archive-query). */
    size_t shards = 1;
};

/** Everything one workload runs on. */
struct Inputs
{
    std::vector<CampaignInput> campaigns;

    bool hasFleet = false;
    std::string fleetPath;
    pdnspot::FleetSpec fleet;
};

/**
 * Generate the named workload's inputs from opts.seed, write them
 * under opts.workDir and load them. fatal()s (ConfigError) when the
 * program rejects a generated file.
 */
Inputs makeInputs(const Options &opts);

/** Load every spec file of `in` again, replacing the loaded specs. */
void loadInputs(Inputs &in);

/** The reduced fleet-mixed spec, for the traced campaign workloads. */
Inputs companionFleet(const Options &opts);

/**
 * A campaign spec over the fleet's cohort traces and platforms, all
 * five PDNs, static mode: what the traced run measures the campaign
 * layers on for the fleet workload.
 */
Inputs fleetCompanionCampaign(const Options &opts, const Inputs &in);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
