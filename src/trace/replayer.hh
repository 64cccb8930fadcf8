/**
 * @file
 * Trace replay as a Workload.
 *
 * A `.ctrace` file replays through the whole campaign stack — runner,
 * sharding, checkpoints, pooled systems, observability — as an
 * ordinary Workload: each replay thread consumes its recorded stream
 * in order, one decoded block resident at a time, so replay memory is
 * bounded by threads x block capacity no matter how large the trace.
 *
 * Scenario files address replay as `workload = trace:path.ctrace`
 * with knobs `time_scale` (multiply recorded think times), `threads`
 * (remap onto a different thread count; slot i consumes trace thread
 * i mod trace-threads), `loop` (full passes per thread before the
 * thread idles; 0 loops forever, the legacy TraceWorkload behaviour)
 * and `label` (axis label override — name a replay axis after its
 * source generator and a capture→replay run reproduces the generator
 * run's sink and checkpoint bytes exactly).
 */

#ifndef CORONA_TRACE_REPLAYER_HH
#define CORONA_TRACE_REPLAYER_HH

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/ctrace.hh"
#include "workload/registry.hh"
#include "workload/workload.hh"

namespace corona::workload {

/** Replay knobs (the scenario knob set, parsed). */
struct TraceReplayOptions
{
    /** Multiplier applied to recorded think times (> 0). 1.0 replays
     * the recorded timing exactly (bit-identical, no rounding). */
    double time_scale = 1.0;
    /** Replay thread count; 0 uses the trace's own. Slot i consumes
     * trace thread i mod trace-threads, each slot with an independent
     * cursor. */
    std::size_t threads = 0;
    /** Full passes each thread makes over its stream before idling;
     * 0 loops forever. */
    std::uint64_t loop = 0;
    /** Reported workload name; empty uses the trace's source name. */
    std::string label;
};

/**
 * Streams a `.ctrace` file back as a Workload. The file is paged one
 * block per replay thread — never fully resident; the high-water
 * resident-record count is exposed for the window-bound regression
 * test.
 */
class TraceReplayer : public Workload
{
  public:
    /** Open @p path (fatal, with offsets, on a corrupt file). */
    explicit TraceReplayer(std::string path,
                           TraceReplayOptions options = {});

    std::string name() const override;
    MissRequest next(std::size_t thread, sim::Tick now,
                     sim::Rng &rng) override;
    /** A reference trace replays its references, a miss trace its
     * misses — the stream serves both front ends (base-class default
     * forwards nextReference here). */
    std::uint64_t paperRequests() const override;
    /** The source workload's offered load, verbatim from the header
     * (bit-exact, so replay sink bytes match the source run). */
    double offeredBytesPerSecond() const override;
    std::size_t threads() const override;
    void reset() override;

    const trace::TraceInfo &info() const { return _reader->info(); }
    /** True when the trace records raw references (coherent front end
     * input) rather than pre-filtered misses. */
    bool referenceStream() const
    {
        return _reader->info().reference_stream;
    }

    /** Records currently decoded across all replay threads. */
    std::size_t residentRecords() const { return _resident; }
    /** High-water mark of residentRecords() over the replayer's
     * lifetime — the streaming-window bound under test. */
    std::size_t maxResidentRecords() const { return _maxResident; }

  private:
    /** One replay slot's position in its trace thread's stream. */
    struct Cursor
    {
        std::vector<TraceRecord> block; ///< Decoded window.
        std::size_t pos = 0;            ///< Next record in block.
        std::size_t next_chain = 0;     ///< Next block of the chain.
        std::uint64_t passes = 0;       ///< Completed full passes.
        bool exhausted = false;         ///< Hit the loop limit.
    };

    std::string _path;
    TraceReplayOptions _options;
    std::ifstream _file;
    std::optional<trace::Reader> _reader;
    std::vector<Cursor> _cursors;
    std::size_t _resident = 0;
    std::size_t _maxResident = 0;
};

} // namespace corona::workload

namespace corona::trace {

/** The replay knob set, for diagnostics. */
inline constexpr const char *kReplayKnobsHelp =
    "time_scale, threads, loop, label";

/** True when @p name is a `trace:<path>` workload expression. */
bool isTraceExpression(const std::string &name);

/** A resolved `trace:` workload axis, shaped for
 * campaign::WorkloadSpec. */
struct ReplayAxis
{
    /** Axis label: the `label` knob when given, else empty (callers
     * fall back to the canonical expression). */
    std::string label;
    /** The source's synthetic flag, from the header — a replay axis
     * fingerprints like the axis it was captured from. */
    bool synthetic = false;
    /** Replay slots: the `threads` knob, else the header's count. */
    std::size_t threads = 0;
    std::function<std::unique_ptr<workload::Workload>()> make;
};

/**
 * Resolve `trace:<path>` + knobs into an axis. Eager and strict: the
 * file's header and index are fully validated here (fatal with byte
 * offsets), and every knob is parsed — a scenario that parses is a
 * scenario that runs.
 */
ReplayAxis replayAxis(const std::string &name,
                      const std::vector<workload::WorkloadKnob> &knobs);

} // namespace corona::trace

#endif // CORONA_TRACE_REPLAYER_HH
