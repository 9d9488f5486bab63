/**
 * @file
 * MetricsRegistry: a registry of named counters, gauges and
 * histograms — the campaign observability substrate.
 *
 * The campaign engine, interval simulator, ParallelRunner and
 * TraceSpec resolution all report into one registry through
 * thread-local accumulation buffers that merge at chunk boundaries,
 * so hot paths never contend on shared counters. CampaignRunStats is
 * now a thin snapshot view over the well-known campaign metrics
 * (campaignStatsSnapshot in campaign_engine.hh), and the run report
 * (obs/run_report.hh) serializes the full snapshot.
 *
 * Zero-overhead-when-disabled contract: instrumentation sites call
 * the metricAdd/metricSet/metricObserve helpers, which reduce to one
 * relaxed atomic load and a branch while no registry is installed —
 * and instrumentation is purely observational either way, so
 * campaign results are bit-identical with metrics on or off.
 *
 * Installation is process-wide (MetricsInstallation): one campaign
 * at a time is the supported shape. Installing a second registry
 * retargets new increments at it; the previous registry keeps the
 * totals merged so far.
 */

#ifndef PDNSPOT_OBS_METRICS_HH
#define PDNSPOT_OBS_METRICS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pdnspot
{

/** The three metric shapes a registry aggregates. */
enum class MetricKind
{
    Counter,   ///< monotonically increasing uint64 sum
    Gauge,     ///< last-set double value
    Histogram, ///< log2-bucketed double samples + count/sum/min/max
};

const char *toString(MetricKind kind);

/**
 * The metrics the instrumented subsystems report, pre-registered in
 * every registry in this order (so the enum value is the metric id).
 * Naming convention: "<subsystem>.<metric>", lowercase snake case,
 * with time-valued histograms suffixed "_us" (see the README's
 * Observability section).
 */
enum class Metric : size_t
{
    CampaignCells,          ///< counter: cells simulated
    CampaignChunks,         ///< counter: engine chunks completed
    CampaignPhases,         ///< counter: trace phases stepped
    CampaignPlatformBuilds, ///< counter: Platform builds, one per
                            ///< config the run touches
    CampaignCellMicros,     ///< histogram: per-cell simulation time
    TraceResolves,          ///< counter: TraceSpec::resolve calls
    TraceResolveMicros,     ///< histogram: per-resolve time
    SimRunsStatic,          ///< counter: static simulator runs
    SimRunsPmu,             ///< counter: PMU-controlled runs
    SimRunsOracle,          ///< counter: oracle runs
    RunnerJobs,             ///< counter: ParallelRunner jobs
    RunnerChunksClaimed,    ///< counter: chunked range claims
    /**
     * gauge: width of the runner that ran the campaign's or fleet's
     * work. Every ParallelRunner job stamps it, and the engines run
     * all of their work (Platform builds included) on their own
     * runner, so a serial engine reads 1 whatever the global pool's
     * width.
     */
    RunnerThreads,

    Count, ///< number of well-known metrics (not a metric)
};

/** Schema name of a well-known metric ("campaign.cells", ...). */
const char *metricName(Metric metric);

/** Kind of a well-known metric. */
MetricKind metricKind(Metric metric);

/** One metric's aggregated value, as projected by snapshot(). */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;

    uint64_t count = 0; ///< counter value / histogram sample count
    double value = 0.0; ///< gauge value / histogram sum

    /** Histogram shape; empty for counters and gauges. */
    double min = 0.0;
    double max = 0.0;
    std::vector<uint64_t> buckets; ///< log2 buckets, trailing-trimmed

    bool operator==(const MetricSnapshot &) const = default;
};

/**
 * Quantile estimate (q clamped to [0, 1]) from a histogram
 * snapshot's log2 buckets: the bucket containing the q-th sample is
 * located by cumulative count, then the value is linearly
 * interpolated across the bucket's value span (bucket 0 spans
 * [min, 1), bucket i spans [2^(i-1), 2^i)) and clamped to
 * [min, max]. Resolution is therefore one log2 bucket — good enough
 * for the order-of-magnitude tail latencies the run report and
 * --summary print as p50/p95/p99. Returns 0.0 for empty histograms
 * and non-histogram snapshots.
 */
double histogramQuantile(const MetricSnapshot &snapshot, double q);

/**
 * Log2 bucket index for a histogram sample: bucket 0 holds values
 * below 1.0, bucket i covers [2^(i-1), 2^i), the last bucket is
 * open-ended. This is the exact bucketing the registry applies, so
 * standalone snapshots built with histogramObserve interoperate with
 * histogramQuantile and the run-report serialization.
 */
size_t histogramBucketIndex(double value);

/**
 * Accumulate one sample into a standalone histogram snapshot:
 * count/sum/min/max plus the log2 bucket counts, matching what a
 * registry-held histogram would produce for the same samples. Lets
 * subsystems (the fleet aggregator's battery-life distributions)
 * build distribution snapshots outside a registry and still print
 * them via histogramQuantile. Sets the snapshot's kind to Histogram
 * and grows its buckets vector as needed (trailing zero buckets stay
 * trimmed, matching MetricsRegistry::snapshot()).
 */
void histogramObserve(MetricSnapshot &snapshot, double value);

/**
 * A registry instance. The well-known Metric enum is pre-registered;
 * further metrics can be registered by name at any time (ids are
 * dense and stable for the registry's lifetime). Thread-side
 * mutation goes through per-thread buffers; snapshot() sees
 * everything merged by the most recent flush of each thread
 * (flushThread — the engine flushes at chunk boundaries and the
 * ParallelRunner after every drain, so a joined run is fully
 * merged).
 */
class MetricsRegistry
{
  public:
    /** Log2 histogram buckets: bucket 0 is (-inf, 1), bucket i
     * covers [2^(i-1), 2^i), the last bucket is open-ended. */
    static constexpr size_t histogramBuckets = 48;

    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register a metric (or fetch the id it already has). Re-using a
     * name with a different kind is a caller bug and panics.
     */
    size_t registerMetric(const std::string &name, MetricKind kind);

    size_t metricCount() const;

    /** Thread-side ops, accumulated in this thread's buffer. */
    void add(size_t id, uint64_t n = 1);
    void observe(size_t id, double value);

    /** Gauges write through immediately (no buffering). */
    void set(size_t id, double value);

    /**
     * The installed registry, or nullptr when metrics collection is
     * off. One relaxed atomic load — the disabled fast path.
     */
    static MetricsRegistry *current();

    /**
     * Merge the calling thread's buffer into the installed registry
     * and reset it. A no-op when no registry is installed or the
     * buffer is empty. Instrumented subsystems call this at their
     * natural merge points (chunk boundaries, job drains).
     */
    static void flushThread();

    /**
     * Everything merged so far, in registration order (well-known
     * metrics first). Call after the producing threads have joined
     * or flushed; concurrent flushes are safe but make the snapshot
     * a point-in-time cut.
     */
    std::vector<MetricSnapshot> snapshot() const;

    /** One counter's merged value; fatal() unless id is a counter. */
    uint64_t counterValue(size_t id) const;
    uint64_t counterValue(Metric m) const
    {
        return counterValue(static_cast<size_t>(m));
    }

  private:
    friend class MetricsInstallation;
    struct ThreadBuffer;

    struct MetricDef
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        size_t slot = 0; ///< dense per-kind storage index
    };

    struct HistogramCell
    {
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::array<uint64_t, histogramBuckets> buckets{};

        void observe(double value);
        void merge(const HistogramCell &other);
    };

    static ThreadBuffer &threadBuffer();
    void bind(ThreadBuffer &buffer, uint64_t epoch);
    void mergeBuffer(ThreadBuffer &buffer);

    mutable std::mutex _mutex;
    std::vector<MetricDef> _defs;
    std::vector<uint64_t> _counters;
    std::vector<double> _gauges;
    std::vector<HistogramCell> _histograms;
};

/**
 * RAII process-wide installation: while alive, current() returns the
 * registry and instrumentation is live. Destruction (or a newer
 * installation) detaches it; thread buffers bound to a detached
 * epoch are discarded on their next use, so flush everything that
 * matters (join the run) before uninstalling.
 */
class MetricsInstallation
{
  public:
    explicit MetricsInstallation(MetricsRegistry &registry);
    ~MetricsInstallation();

    MetricsInstallation(const MetricsInstallation &) = delete;
    MetricsInstallation &operator=(const MetricsInstallation &) =
        delete;

  private:
    MetricsRegistry *_previous;
    uint64_t _epoch;
};

/** Instrumentation-site helpers: no-ops while no registry is
 * installed (one relaxed load + branch). */
inline void
metricAdd(Metric m, uint64_t n = 1)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->add(static_cast<size_t>(m), n);
}

inline void
metricObserve(Metric m, double value)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->observe(static_cast<size_t>(m), value);
}

inline void
metricSet(Metric m, double value)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->set(static_cast<size_t>(m), value);
}

} // namespace pdnspot

#endif // PDNSPOT_OBS_METRICS_HH
