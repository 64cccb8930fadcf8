/**
 * @file
 * Experiment metrics (the quantities Figures 8-11 plot).
 */

#ifndef CORONA_CORONA_METRICS_HH
#define CORONA_CORONA_METRICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace corona::core {

/** Results of one (configuration, workload) simulation. */
struct RunMetrics
{
    std::string config;    ///< e.g. "XBar/OCM".
    std::string workload;  ///< e.g. "FFT".

    std::uint64_t requests_issued = 0;    ///< Primary misses sent.
    std::uint64_t requests_coalesced = 0; ///< Secondary misses merged.
    sim::Tick elapsed = 0;                ///< Completion time.

    /** Figure 9: achieved main-memory bandwidth, bytes per second. */
    double achieved_bytes_per_second = 0.0;
    /** Figure 10: average L2-miss latency, nanoseconds. */
    double avg_latency_ns = 0.0;
    /** 95th-percentile latency, nanoseconds. */
    double p95_latency_ns = 0.0;
    /** Figure 11: on-chip network dynamic power, watts. */
    double network_power_w = 0.0;

    /** Mean optical token wait (crossbar only), nanoseconds. */
    double token_wait_ns = 0.0;
    /** Sum over delivered messages of hops traversed (mesh power). */
    std::uint64_t hop_traversals = 0;
    /** Issue attempts rejected by a full MSHR file. */
    std::uint64_t mshr_full_stalls = 0;
    /** Peak memory-controller queue depth across clusters. */
    std::uint64_t peak_mc_queue = 0;
    /** Workload offered load, bytes per second (calibration aid). */
    double offered_bytes_per_second = 0.0;

    /** Kernel events executed by this run (host-side throughput
     * accounting; never serialised by the sinks). */
    std::uint64_t events_executed = 0;
    /** Host wall-clock the simulation loop took, seconds (informational
     * only; never serialised by the sinks). */
    double host_seconds = 0.0;

    /** Figure 8 helper: this run's speedup over a baseline run. */
    double speedupOver(const RunMetrics &baseline) const;
};

/**
 * One serialised result field of RunMetrics: its column name (the CSV
 * header cell and JSON key), where it lives, and whether SummarySink
 * aggregates it across seed replicates.
 */
struct MetricField
{
    enum class Kind { Count, Real };

    const char *name;
    Kind kind;
    std::uint64_t RunMetrics::*count; ///< Set when kind == Count.
    double RunMetrics::*real;         ///< Set when kind == Real.
    bool summarised;
};

namespace detail {

constexpr MetricField
countField(const char *name, std::uint64_t RunMetrics::*member)
{
    return {name, MetricField::Kind::Count, member, nullptr, false};
}

constexpr MetricField
realField(const char *name, double RunMetrics::*member,
          bool summarised)
{
    return {name, MetricField::Kind::Real, nullptr, member, summarised};
}

} // namespace detail

/**
 * The serialised result fields, in CSV column order. Every sink,
 * the checkpoint reader, the summary aggregator and the parity
 * comparisons walk this table; a field absent from it (config,
 * workload, events_executed, host_seconds) is never serialised.
 */
inline constexpr std::array<MetricField, 12> metricFields{{
    detail::countField("requests_issued", &RunMetrics::requests_issued),
    detail::countField("requests_coalesced",
                       &RunMetrics::requests_coalesced),
    detail::countField("elapsed_ticks", &RunMetrics::elapsed),
    detail::realField("avg_latency_ns", &RunMetrics::avg_latency_ns,
                      true),
    detail::realField("p95_latency_ns", &RunMetrics::p95_latency_ns,
                      true),
    detail::realField("achieved_bytes_per_second",
                      &RunMetrics::achieved_bytes_per_second, true),
    detail::realField("offered_bytes_per_second",
                      &RunMetrics::offered_bytes_per_second, false),
    detail::realField("network_power_w", &RunMetrics::network_power_w,
                      true),
    detail::realField("token_wait_ns", &RunMetrics::token_wait_ns, true),
    detail::countField("hop_traversals", &RunMetrics::hop_traversals),
    detail::countField("mshr_full_stalls", &RunMetrics::mshr_full_stalls),
    detail::countField("peak_mc_queue", &RunMetrics::peak_mc_queue),
}};

/**
 * Names of the metricFields entries on which @p a and @p b differ, in
 * table order; empty when every serialised field is exactly equal
 * (doubles compare with ==, so a NaN never equals itself).
 */
std::vector<std::string> differingFields(const RunMetrics &a,
                                         const RunMetrics &b);

} // namespace corona::core

#endif // CORONA_CORONA_METRICS_HH
