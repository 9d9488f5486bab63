/**
 * @file
 * The traced run and the self-test.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include "common.hh"

namespace perfbench
{

/**
 * Run the workload's inputs layer by layer through each layer's
 * public functions, with spans recorded in memory and written as a
 * trace-event file under opts.workDir at the end. Reports the
 * per-layer metrics.
 */
Outcome tracedRun(const Options &opts);

/**
 * Reduced-size run of every workload and its checks, plus the 1 vs
 * N thread byte-identity of campaign and fleet outputs. Returns the
 * process exit status (0 = every check passed).
 */
int runSelftest(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
