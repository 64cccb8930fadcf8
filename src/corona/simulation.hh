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
    /** Requested shard count for the conservative parallel executor
     * (sim/parallel.hh). 0 = the classic single-queue engine. The
     * effective count may fall back to 0 — see effectiveSimThreads()
     * in exec_plan.hh for the conditions. Not part of checkpoint
     * fingerprints: the engine choice never changes results at a
     * given effective mode, only wall-clock time. */
    unsigned sim_threads = 0;
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
    /**
     * One driver lane: the injection state that must be single-writer
     * under the sharded executor. The classic engine runs one lane
     * spanning every cluster (bit-identical to the historical shared
     * state); the executor runs one lane per cluster, each on its
     * cluster's queue with its own RNG stream and an even split of
     * the request budget. Lane statistics merge in cluster order at
     * the end of the run, so aggregates are shard-count-invariant.
     */
    struct Lane
    {
        sim::Rng rng{1};
        sim::EventQueue *q = nullptr;
        std::uint64_t budget = 0;
        std::uint64_t issued = 0;
        std::uint64_t coalesced = 0;
        std::uint64_t completed = 0;
        sim::Tick endTick = 0;
        stats::RunningStats latency;
        stats::Histogram hist{/*bucket_width_ns=*/5.0,
                              /*num_buckets=*/400};
    };

    void bindThreads();
    void initLanes();
    std::uint64_t totalBudget() const;
    void beginMeasurement();
    void scheduleNext(std::size_t tid);
    void tryIssue(std::size_t tid);
    void onFill(std::size_t tid, sim::Tick ready_since);

    Lane &
    laneFor(std::size_t tid)
    {
        return _lanes[_exec ? tid / _config.threads_per_cluster : 0];
    }

    SimContext &_ctx;
    SystemConfig _config;
    workload::Workload &_workload;
    SimParams _params;

    sim::EventQueue &_eq;
    /** The context's sharded executor (null on the classic engine). */
    sim::ShardedExecutor *_exec = nullptr;

    struct PendingIssue
    {
        workload::MissRequest request;
        sim::Tick ready;
    };

    std::vector<workload::ThreadContext> _threads;
    std::vector<std::optional<PendingIssue>> _pending;
    std::vector<Lane> _lanes;

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
 * @p config, on the engine effectiveSimThreads() grants (event tracing
 * pins the classic engine).
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
