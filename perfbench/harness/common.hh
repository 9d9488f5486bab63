/**
 * @file
 * Shared plumbing of the benchmark harness: options, the seeded
 * generator, timing and order statistics, the run outcome and its
 * one-line JSON result.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** Command-line options of one harness invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for spec files, archives and trace files. */
    std::string workDir;

    /** Reduced input sizes (the self-test). */
    bool small = false;
};

/** splitmix64: the one generator every input is drawn from. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : _state(seed) {}

    uint64_t next();

    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform index in [0, n). */
    size_t index(size_t n);

  private:
    uint64_t _state;
};

/** Seed stream for one purpose, derived from the run seed. */
uint64_t deriveSeed(uint64_t seed, const std::string &purpose);

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);


/** Peak resident set of this process image, MiB (VmHWM). */
double peakRssMb();

std::string readFile(const std::string &path);
void writeFile(const std::string &path, const std::string &bytes);

/** |a - b| <= rel * max(|a|, |b|). */
bool closeRel(double a, double b, double rel);

/** One reported metric. */
struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run produced: operation counts, correctness verdict and
 * metrics. A failed check marks the run incorrect and keeps its
 * message for stderr; a counted failing operation does not.
 */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<MetricValue> metrics;
    std::vector<std::string> problems;

    /** Record a failed output check (first 20 are kept). */
    void fail(const std::string &message);

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** The result line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
