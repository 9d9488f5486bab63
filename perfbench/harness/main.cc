/**
 * @file
 * pdnspot_perfbench: runs one benchmark workload from a seed and
 * prints its result as the last line of standard output.
 *
 *   pdnspot_perfbench --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> --work-dir <dir>
 *   pdnspot_perfbench --selftest --work-dir <dir>
 *
 * Workloads: campaign-pmu, design-sweep, fleet-mixed, archive-query.
 * --trace 0 prints the end-to-end metrics of untraced runs; --trace 1
 * runs the workload layer by layer with spans and prints per-layer
 * metrics (see README.md). Exit status 0 after a result line, 1 on
 * an error (no result line), 2 on bad usage.
 */

#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hh"
#include "common/logging.hh"
#include "traced.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "pdnspot_perfbench: " << message << "\n"
              << "usage: pdnspot_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n"
              << "       pdnspot_perfbench --selftest --work-dir <dir>\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            opts.trace = value() == "1";
        else if (arg == "--work-dir")
            opts.workDir = value();
        else if (arg == "--selftest")
            selftest = true;
        else
            usage("unknown argument \"" + arg + "\"");
    }
    if (opts.workDir.empty())
        usage("--work-dir is required");
    if (!selftest && !(opts.seconds > 0.0))
        usage("--seconds must be positive");

    // A fixed threshold keeps glibc from raising it each time a large
    // mmapped block is freed. Raised, it moves later large blocks onto
    // the heap, and whether freed heap space is reused depends on the
    // order the pool's threads free theirs: fleet-mixed's peak RSS
    // then reads either about 43 or about 51 MiB from run to run.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    // The library's informational chatter would interleave with the
    // result line's stream; warnings still reach stderr.
    pdnspot::setLogThreshold(pdnspot::LogLevel::Warn);

    try {
        std::filesystem::create_directories(opts.workDir);
        if (selftest)
            return runSelftest(opts);
        Outcome out;
        if (opts.trace)
            out = tracedRun(opts);
        else if (opts.workload == "campaign-pmu")
            out = runCampaignPmu(opts);
        else if (opts.workload == "design-sweep")
            out = runDesignSweep(opts);
        else if (opts.workload == "fleet-mixed")
            out = runFleetMixed(opts);
        else if (opts.workload == "archive-query")
            out = runArchiveQuery(opts);
        else
            usage("unknown workload \"" + opts.workload + "\"");
        for (const std::string &p : out.problems)
            std::cerr << "check failed: " << p << "\n";
        std::cout << out.json() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "pdnspot_perfbench: " << e.what() << "\n";
        return 1;
    }
}
