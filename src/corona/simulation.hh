/**
 * @file
 * Trace-driven network simulation driver (Section 4).
 *
 * Drives 1024 thread contexts through a CoronaSystem: each thread's
 * misses (from the workload model) are separated by think times, bounded
 * by a per-thread outstanding window (memory-level parallelism) and the
 * cluster MSHR file, and complete through the network + memory models.
 * The run ends when the configured number of primary misses has issued
 * and every fill has returned; metrics mirror Figures 8-11.
 */

#ifndef CORONA_CORONA_SIMULATION_HH
#define CORONA_CORONA_SIMULATION_HH

#include <optional>
#include <string_view>
#include <vector>

#include "corona/context.hh"
#include "corona/metrics.hh"
#include "corona/system.hh"
#include "obs/observe.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"
#include "workload/thread_model.hh"
#include "workload/workload.hh"

namespace corona::core {

/** Simulation controls. */
struct SimParams
{
    /** Primary misses to simulate (Table 3 counts, scaled; the
     * CORONA_REQUESTS environment variable overrides bench defaults). */
    std::uint64_t requests = 50'000;
    std::uint64_t seed = 1;
    /** Primary misses issued before measurement starts: latency
     * samples are discarded and the bandwidth clock starts once the
     * warm-up budget has issued (standard sampling methodology; the
     * paper's trace runs are similarly past their cold start). */
    std::uint64_t warmup_requests = 0;
    /** Kept only for perfbench/ (remove when the benchmark next changes). */
    static constexpr unsigned sim_threads = 0;
};

/**
 * One simulation run binding a configuration to a workload.
 */
class NetworkSimulation
{
  public:
    /**
     * Run on an externally owned (typically pooled) context. @p ctx
     * must be pristine — freshly constructed or reset(), as
     * SystemPool::lease guarantees — and its configuration is the
     * system under test. Fatal when the context carries prior-run
     * state.
     */
    NetworkSimulation(SimContext &ctx, workload::Workload &workload,
                      const SimParams &params = {});

    /** Execute to completion and return the metrics. */
    RunMetrics run();

    /** The system under test (for inspection after run()). */
    CoronaSystem &system() { return _ctx.system(); }

  private:
    void bindThreads();
    void beginMeasurement();
    void scheduleNext(std::size_t tid);
    void tryIssue(std::size_t tid);
    void onFill(std::size_t tid, sim::Tick ready_since);

    SimContext &_ctx;
    SystemConfig _config;
    workload::Workload &_workload;
    SimParams _params;

    sim::EventQueue &_eq;

    struct PendingIssue
    {
        workload::MissRequest request;
        sim::Tick ready;
    };

    std::vector<workload::ThreadContext> _threads;
    std::vector<std::optional<PendingIssue>> _pending;

    sim::Rng _rng;
    /** Primary misses to issue: warm-up plus measured requests. */
    std::uint64_t _budget;
    std::uint64_t _issued = 0;
    std::uint64_t _coalesced = 0;
    std::uint64_t _completed = 0;
    sim::Tick _endTick = 0;
    stats::RunningStats _latency;
    stats::Histogram _latencyHist{/*bucket_width_ns=*/5.0,
                                  /*num_buckets=*/400};

    /** Measurement epoch (set when the warm-up budget has issued). */
    bool _measuring = false;
    sim::Tick _measureStart = 0;
    std::uint64_t _bytesAtMeasureStart = 0;
    std::uint64_t _hopsAtMeasureStart = 0;
    bool _ran = false;
};

/**
 * Run @p workload on a pristine leased context (see the
 * NetworkSimulation constructor). The context is left dirty
 * afterwards; the pool resets it on the next lease.
 *
 * When @p obs requests any plane, the run carries a fully wired
 * obs::RunObserver (registry instrumentation, optional event tracer,
 * optional time-series sampler) and its output files are written
 * before returning. A disabled @p obs attaches nothing — metrics and
 * sink bytes cannot differ from an unobserved run.
 */
RunMetrics runExperiment(SimContext &ctx, workload::Workload &workload,
                         const SimParams &params = {},
                         const obs::RunObservability &obs = {});

/**
 * Convenience harness: run @p workload on a fresh context for
 * @p config.
 */
RunMetrics runExperiment(const SystemConfig &config,
                         workload::Workload &workload,
                         const SimParams &params = {},
                         const obs::RunObservability &obs = {});

/**
 * Strictly parse a positive decimal count: digits only (no sign,
 * whitespace, or trailing garbage), non-zero, and within uint64 range.
 * @return std::nullopt on any violation.
 */
std::optional<std::uint64_t> parsePositiveCount(std::string_view text);

/**
 * Bench request-count default, honouring $CORONA_REQUESTS.
 *
 * Fatal (with the offending text) when the variable is set but is not a
 * strictly positive in-range decimal — a silently ignored typo would
 * otherwise run a 50k-request campaign the user never asked for.
 */
std::uint64_t defaultRequestBudget();

} // namespace corona::core

#endif // CORONA_CORONA_SIMULATION_HH
