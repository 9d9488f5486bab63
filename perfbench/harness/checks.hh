/**
 * @file
 * Output checks the benchmark computes on its own: expected energies
 * are summed phase by phase straight from OperatingPointModel::build,
 * PdnModel::evaluate and FlexWattsPdn::evaluate(state, mode), never
 * from the engines under test or from stored outputs.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <map>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "common.hh"
#include "fleet/fleet_result.hh"
#include "fleet/fleet_spec.hh"

namespace perfbench
{

/** One parsed campaign CSV row. */
struct CsvRow
{
    std::string trace, platform, pdn, mode;
    double durationS = 0, supplyJ = 0, nominalJ = 0;
    double ivrModeS = 0, ldoModeS = 0;
    double switches = 0, switchTimeS = 0, switchEnergyJ = 0;
};

/** Data rows of a campaign CSV (the header is checked and skipped). */
std::vector<CsvRow> parseCampaignCsv(const std::string &csv,
                                     Outcome &out);

/** Phase-by-phase reference sums of one (trace, platform) pair. */
struct PairExpect
{
    double durationS = 0.0;
    double nominalJ = 0.0;
    double staticJ[4] = {}; ///< IVR, MBVR, LDO, I+MBVR
    double minJ = 0.0;      ///< sum of d * min(P_IVR-Mode, P_LDO-Mode)
    double maxJ = 0.0;      ///< sum of d * max(...)
    double maxP = 0.0;      ///< largest mode power of any phase
    double minP = 0.0;      ///< smallest mode power of any phase
};

/**
 * Checks campaign CSVs row by row against the reference sums, which
 * are computed once per (trace, platform) pair and reused.
 */
class CampaignChecker
{
  public:
    /** Check every row of `csv`, the engine output of `spec`. */
    void check(const pdnspot::CampaignSpec &spec,
               const std::string &csv, Outcome &out);

  private:
    /** Content key: trace provenance plus the platform's knobs. */
    static std::string pairKey(const pdnspot::CampaignSpec &spec,
                               size_t trace, size_t platform);

    const PairExpect &expect(const pdnspot::CampaignSpec &spec,
                             size_t trace, size_t platform);

    std::map<std::string, PairExpect> _cache;
};

/**
 * Non-hybrid rows must be identical whatever the mode: compare the
 * rows of two CSVs of one spec run in different modes.
 */
void checkModesAgree(const std::string &csvA, const std::string &csvB,
                     Outcome &out);

/** Checks fleet results against per-cohort reference powers. */
class FleetChecker
{
  public:
    void check(const pdnspot::FleetSpec &spec,
               const pdnspot::FleetResult &result, Outcome &out);

  private:
    struct CohortExpect
    {
        double meanW = 0.0; ///< cycle-mean supply power
        double minW = 0.0;
        double maxW = 0.0;
        double cycleS = 0.0;
    };
    std::vector<CohortExpect> _cohorts;
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
