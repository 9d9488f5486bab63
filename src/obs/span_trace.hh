/**
 * @file
 * SpanRecorder: per-thread begin/end span recording with Chrome
 * trace-event JSON export.
 *
 * Instrumented subsystems mark regions with SpanScope (chunk claims,
 * trace resolution, cell evaluation, platform builds);
 * each thread appends to its own preallocated bounded buffer, so the
 * hot path is two branch-guarded stores and never takes a lock. The
 * recorder serializes everything to the Chrome/Perfetto trace-event
 * format ({"traceEvents": [{"ph": "B"/"E", ...}]}) via src/config/
 * json — open the file in https://ui.perfetto.dev or
 * chrome://tracing.
 *
 * Buffers are bounded, not growable: accepting a begin reserves the
 * slot for its matching end, so a full buffer drops whole spans
 * (counted in droppedSpans()) and the emitted stream always has
 * balanced B/E pairs with monotonic per-thread timestamps.
 *
 * Like MetricsRegistry, installation is process-wide and RAII
 * (SpanInstallation); spanBegin/spanEnd reduce to one relaxed atomic
 * load and a branch while no recorder is installed.
 */

#ifndef PDNSPOT_OBS_SPAN_TRACE_HH
#define PDNSPOT_OBS_SPAN_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "config/json.hh"

namespace pdnspot
{

/**
 * Options for the identity-stamped trace-event export. Sharded
 * campaign runs (--shard k/n) each serialize their own timeline;
 * stamping the shard index as the pid and into the process name
 * keeps concatenated/merged timelines from colliding on (pid, tid)
 * in the Perfetto UI. `extraEvents` (e.g. probe counter tracks from
 * obs/waveform_io.hh, which carry their own pids) are appended after
 * the span events.
 */
struct TraceEventExport
{
    size_t shardIndex = 1;
    size_t shardCount = 1;

    /**
     * Process name for the "M" process_name metadata event; when
     * shardCount > 1 the serializer appends " shard k/n". Empty
     * suppresses the metadata event.
     */
    std::string processName = "pdnspot_campaign";

    std::vector<JsonValue> extraEvents;
};

/**
 * Collects spans from every thread that touches it while installed.
 * Serialize (traceEventsJson/writeTraceEvents) only after the
 * producing threads have quiesced — typically after the campaign
 * run's ParallelRunner drain.
 */
class SpanRecorder
{
  public:
    /** Per-thread event capacity; ~24 bytes per event. */
    static constexpr size_t defaultEventsPerThread = 1 << 16;

    explicit SpanRecorder(
        size_t eventsPerThread = defaultEventsPerThread);
    ~SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /**
     * The installed recorder, or nullptr when span tracing is off.
     * One relaxed atomic load — the disabled fast path.
     */
    static SpanRecorder *current();

    /**
     * Open a span on the calling thread. `name` and `category` must
     * be string literals (or otherwise outlive the recorder); they
     * are stored by pointer, not copied.
     */
    void begin(const char *name, const char *category);

    /** Close the calling thread's innermost open span. */
    void end();

    /** Events recorded so far, across all threads. */
    size_t eventCount() const;

    /** Spans dropped because a thread's buffer filled up. */
    uint64_t droppedSpans() const;

    /**
     * The recorded spans as a Chrome trace-event document:
     * {"traceEvents": [{"name", "cat", "ph", "ts", "pid", "tid"},
     * ...]}. Timestamps are microseconds from the recorder's
     * construction; tids are dense per-thread ids in first-use order.
     */
    JsonValue traceEventsJson() const;

    /**
     * Identity-stamped export: spans carry pid = options.shardIndex
     * (not getpid()), a process_name metadata event labels the
     * timeline (shard-suffixed when shardCount > 1), and
     * options.extraEvents ride along at the end of traceEvents. The
     * zero-argument overload above keeps the historical unstamped
     * shape.
     */
    JsonValue traceEventsJson(const TraceEventExport &options) const;

    /** writeJson(traceEventsJson()). */
    std::string writeTraceEvents() const;

  private:
    friend class SpanScope;
    struct Event
    {
        const char *name;
        const char *category;
        double tsMicros;
        char phase; ///< 'B' or 'E'
    };

    struct ThreadLog
    {
        int tid = 0;           ///< dense id, first-use order
        size_t open = 0;       ///< accepted begins awaiting end
        uint64_t dropDepth = 0; ///< open *dropped* begins
        uint64_t dropped = 0;  ///< spans lost to a full buffer
        std::vector<Event> events;
    };

    ThreadLog &threadLog();
    double nowMicros() const;

    std::chrono::steady_clock::time_point _origin;
    size_t _eventsPerThread;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<ThreadLog>> _logs;
};

/**
 * RAII process-wide installation: while alive, current() returns the
 * recorder and SpanScope records. Quiesce producing threads before
 * destroying it.
 */
class SpanInstallation
{
  public:
    explicit SpanInstallation(SpanRecorder &recorder);
    ~SpanInstallation();

    SpanInstallation(const SpanInstallation &) = delete;
    SpanInstallation &operator=(const SpanInstallation &) = delete;

  private:
    SpanRecorder *_previous;
};

/**
 * Scope guard for one span. The recorder is resolved once at
 * construction, so a scope that straddles an (un)installation stays
 * internally balanced.
 */
class SpanScope
{
  public:
    SpanScope(const char *name, const char *category)
        : _recorder(SpanRecorder::current())
    {
        if (_recorder)
            _recorder->begin(name, category);
    }

    ~SpanScope()
    {
        if (_recorder)
            _recorder->end();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *_recorder;
};

} // namespace pdnspot

#endif // PDNSPOT_OBS_SPAN_TRACE_HH
