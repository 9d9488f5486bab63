/**
 * @file
 * The four workloads, untraced: they drive the library calls the
 * CLIs make and time them from outside. Also the helpers the traced
 * run and the self-test share with them.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "campaign/campaign_engine.hh"
#include "common.hh"
#include "inputs.hh"
#include "store/result_archive.hh"

namespace perfbench
{

Outcome runCampaignPmu(const Options &opts);
Outcome runDesignSweep(const Options &opts);
Outcome runFleetMixed(const Options &opts);
Outcome runArchiveQuery(const Options &opts);

/** The engine's CSV for a whole spec (CampaignCsvSink). */
std::string engineCsv(const pdnspot::CampaignEngine &engine,
                      const pdnspot::CampaignSpec &spec);

/** One archived shard: report bytes plus its CSV payload. */
struct ShardRun
{
    std::string report;
    std::string csv;
};

/** A campaign archived as a shard set, with its unsharded CSV. */
struct ShardSet
{
    std::string specHash; ///< fnv1a64 hex of the spec file bytes
    std::vector<ShardRun> shards;
    std::string unshardedCsv;
};

/**
 * Run shard k/n of `c` the way `pdnspot_campaign --shard k/n
 * --report` does: metrics installed around the engine, CSV header
 * only on shard 1, then buildRunReport. Returns the report text and
 * CSV; `reportMs` (if given) receives the buildRunReport time.
 */
ShardRun runShard(const CampaignInput &c,
                  const pdnspot::ParallelRunner &runner, size_t k,
                  size_t n, double *reportMs = nullptr);

/**
 * Every shard of `c` plus the unsharded engine CSV; each shard's
 * buildRunReport time is appended to `reportMs` when given.
 */
ShardSet makeShardSet(const CampaignInput &c,
                      const pdnspot::ParallelRunner &runner,
                      std::vector<double> *reportMs = nullptr);

/** One seeded archive query, as pdnspot_query filters. */
struct Query
{
    size_t set = 0;         ///< shard set it should select
    std::string hashPrefix; ///< --spec-hash
    std::string pdn;        ///< --pdn
    std::string metric;     ///< --where <metric> > threshold
    double threshold = 0.0;
};

/**
 * entries() -> spec-hash / PDN / --where filters -> orderShardSet
 * -> readCsv of each shard, concatenated.
 */
std::string runQuery(const pdnspot::ResultArchive &archive,
                     const Query &q);

/** The runner.threads gauge recorded in a run report (-1 if absent). */
double reportedThreads(const pdnspot::JsonValue &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
