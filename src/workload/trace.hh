/**
 * @file
 * Miss-trace records and capture helpers.
 *
 * The paper's methodology splits simulation in two: a full-system
 * simulator emits annotated L2-miss traces, and the network simulator
 * replays them. The trace seam itself lives in src/trace/ — the
 * streaming `.ctrace` container (trace/ctrace.hh) and the replay
 * workload (trace/replayer.hh). This header keeps the pieces the
 * subsystem builds on: the TraceRecord unit and round-robin capture
 * of a generator's stream.
 */

#ifndef CORONA_WORKLOAD_TRACE_HH
#define CORONA_WORKLOAD_TRACE_HH

#include <cstdint>
#include <vector>

#include "workload/workload.hh"

namespace corona::workload {

/** One trace record: a miss annotated with its thread and timing. */
struct TraceRecord
{
    std::uint32_t thread;
    std::uint32_t home;
    std::uint64_t line;
    std::uint64_t think_time;
    std::uint8_t write;

    bool operator==(const TraceRecord &) const = default;
};

/**
 * Capture @p requests records from a workload into a trace (drawing
 * think times and destinations with the given seed).
 */
std::vector<TraceRecord> captureTrace(Workload &workload,
                                      std::uint64_t requests,
                                      std::uint64_t seed = 1);

/**
 * Like captureTrace, but draws from the workload's reference stream
 * (nextReference) — the raw load/store sequence the coherent front
 * end filters. Pair with a reference-stream writer flag so replays
 * route through the right injection path.
 */
std::vector<TraceRecord> captureReferenceTrace(Workload &workload,
                                               std::uint64_t requests,
                                               std::uint64_t seed = 1);

} // namespace corona::workload

#endif // CORONA_WORKLOAD_TRACE_HH
