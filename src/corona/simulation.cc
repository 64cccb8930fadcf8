#include "corona/simulation.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "corona/env.hh"
#include "corona/exec_plan.hh"
#include "corona/frontend.hh"
#include "obs/observe.hh"
#include "power/network_power.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace corona::core {

NetworkSimulation::NetworkSimulation(SimContext &ctx,
                                     workload::Workload &workload,
                                     const SimParams &params)
    : _ctx(ctx), _config(ctx.config()), _workload(workload),
      _params(params), _eq(_ctx.eq()), _exec(_ctx.executor())
{
    if (!_ctx.pristine())
        sim::fatal("NetworkSimulation: leased context is not pristine "
                   "(reset it, or lease through SystemPool)");
    if (_exec &&
        (_params.warmup_requests > 0 ||
         _config.frontend == FrontendKind::Coherent ||
         !_workload.partitionable(_config.clusters,
                                  _config.threads_per_cluster)))
        sim::fatal("NetworkSimulation: run is not partitionable but "
                   "the leased context is sharded; size the lease "
                   "with effectiveSimThreads()");
    bindThreads();
    initLanes();
}

void
NetworkSimulation::bindThreads()
{
    const std::size_t n = _config.threads();
    if (_workload.threads() != n) {
        sim::fatal("NetworkSimulation: workload drives " +
                   std::to_string(_workload.threads()) +
                   " threads, system has " + std::to_string(n));
    }
    _threads.reserve(n);
    for (std::size_t tid = 0; tid < n; ++tid) {
        _threads.emplace_back(
            tid,
            static_cast<topology::ClusterId>(
                tid / _config.threads_per_cluster),
            _config.thread_window);
    }
    _pending.resize(n);
}

void
NetworkSimulation::initLanes()
{
    if (_exec) {
        // One lane per cluster, each pinned to its cluster's queue
        // with a private RNG stream and an even budget split
        // (remainder to the low clusters). Warm-up is excluded by
        // effectiveSimThreads(), so the split covers requests only.
        const std::size_t n = _config.clusters;
        _lanes.resize(n);
        const std::uint64_t base = _params.requests / n;
        const std::uint64_t rem = _params.requests % n;
        for (std::size_t c = 0; c < n; ++c) {
            Lane &lane = _lanes[c];
            lane.rng = sim::Rng(_params.seed +
                                0x9e3779b97f4a7c15ull * (c + 1));
            lane.budget = base + (c < rem ? 1 : 0);
            lane.q = &_exec->queueFor(c);
        }
    } else {
        // The classic engine: one lane spanning every cluster,
        // seeded exactly as the historical shared RNG — bytes cannot
        // differ from the pre-lane driver.
        _lanes.resize(1);
        _lanes[0].rng = sim::Rng(_params.seed);
        _lanes[0].budget = totalBudget();
        _lanes[0].q = &_eq;
    }
}

std::uint64_t
NetworkSimulation::totalBudget() const
{
    return _params.warmup_requests + _params.requests;
}

void
NetworkSimulation::beginMeasurement()
{
    _measuring = true;
    _measureStart = _exec ? _exec->now() : _eq.now();
    _bytesAtMeasureStart = _ctx.system().memoryBytesMoved();
    _hopsAtMeasureStart =
        _ctx.system().network().netStats().hopTraversals.value();
}

void
NetworkSimulation::scheduleNext(std::size_t tid)
{
    Lane &lane = laneFor(tid);
    if (lane.issued >= lane.budget)
        return; // Budget exhausted: the thread retires.
    // The coherent front end consumes pre-cache reference streams; the
    // miss-stream front end replays records as L2 misses directly.
    const workload::MissRequest req =
        _config.frontend == FrontendKind::Coherent
            ? _workload.nextReference(tid, lane.q->now(), lane.rng)
            : _workload.next(tid, lane.q->now(), lane.rng);
    const sim::Tick ready = lane.q->now() + req.think_time;
    lane.q->schedule(ready, [this, tid, req, ready] {
        if (_pending[tid])
            sim::panic("NetworkSimulation: overlapping pending issues");
        _pending[tid] = PendingIssue{req, ready};
        tryIssue(tid);
    });
}

void
NetworkSimulation::tryIssue(std::size_t tid)
{
    workload::ThreadContext &ctx = _threads[tid];
    Lane &lane = laneFor(tid);
    if (!_pending[tid])
        return; // Fill raced ahead of a stalled retry; nothing to do.
    if (lane.issued >= lane.budget) {
        _pending[tid].reset(); // Budget filled while we were stalled.
        return;
    }
    if (ctx.windowFull()) {
        ctx.setWaitingForWindow(true);
        return; // Resumed by onFill.
    }

    const PendingIssue pending = *_pending[tid];
    const workload::MissRequest &req = pending.request;
    Hub &hub = _ctx.system().hub(ctx.cluster());
    Hub::FillFn fill =
        [this, tid, ready = pending.ready] { onFill(tid, ready); };

    // A cache hit is a primary issue too (its fill arrives after one
    // hub traversal): references and misses share the budget, the
    // window, and the drain invariant.
    bool primary = false;
    bool stalled = false;
    if (CoherentFrontEnd *fe = _ctx.system().frontEnd()) {
        switch (fe->access(ctx.cluster(), req.line, req.home, req.write,
                           std::move(fill))) {
          case CoherentFrontEnd::Outcome::MshrFull: stalled = true; break;
          case CoherentFrontEnd::Outcome::Hit:
          case CoherentFrontEnd::Outcome::Sent: primary = true; break;
          case CoherentFrontEnd::Outcome::Coalesced: primary = false;
            break;
        }
    } else {
        switch (hub.issueMiss(req.line, req.home, req.write,
                              std::move(fill))) {
          case Hub::Issue::MshrFull: stalled = true; break;
          case Hub::Issue::Sent: primary = true; break;
          case Hub::Issue::Coalesced: primary = false; break;
        }
    }

    if (stalled) {
        ctx.setWaitingForMshr(true);
        hub.stallOnMshr([this, tid] {
            _threads[tid].setWaitingForMshr(false);
            tryIssue(tid);
        });
        return;
    }
    if (primary) {
        ++lane.issued;
        // Warm-up forces the classic single-lane engine, so the
        // lane's count is the global issue count here.
        if (!_measuring && lane.issued >= _params.warmup_requests)
            beginMeasurement();
    } else {
        ++lane.coalesced;
    }
    ctx.issued();
    _pending[tid].reset();
    scheduleNext(tid);
}

void
NetworkSimulation::onFill(std::size_t tid, sim::Tick ready_since)
{
    workload::ThreadContext &ctx = _threads[tid];
    Lane &lane = laneFor(tid);
    if (_measuring && ready_since >= _measureStart) {
        const auto latency =
            static_cast<double>(lane.q->now() - ready_since);
        lane.latency.sample(latency);
        lane.hist.sample(latency /
                         static_cast<double>(sim::oneNanosecond));
    }
    ctx.completed();
    ++lane.completed;
    lane.endTick = std::max(lane.endTick, lane.q->now());
    if (ctx.waitingForWindow()) {
        ctx.setWaitingForWindow(false);
        tryIssue(tid);
    }
}

RunMetrics
NetworkSimulation::run()
{
    if (_ran)
        sim::fatal("NetworkSimulation::run: already ran");
    _ran = true;

    const auto host_start = std::chrono::steady_clock::now();
    if (_params.warmup_requests == 0)
        beginMeasurement();
    for (std::size_t tid = 0; tid < _threads.size(); ++tid)
        scheduleNext(tid);
    if (_exec)
        _exec->run();
    else
        _eq.run();

    // Merge the lanes in cluster order: every aggregate below is then
    // a pure function of the model, identical at any shard count.
    std::uint64_t issued = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t completed = 0;
    sim::Tick end_tick = 0;
    stats::RunningStats latency;
    stats::Histogram latency_hist(/*bucket_width_ns=*/5.0,
                                  /*num_buckets=*/400);
    for (const Lane &lane : _lanes) {
        issued += lane.issued;
        coalesced += lane.coalesced;
        completed += lane.completed;
        end_tick = std::max(end_tick, lane.endTick);
        latency.merge(lane.latency);
        latency_hist.merge(lane.hist);
    }

    const std::uint64_t outstanding = issued + coalesced - completed;
    if (outstanding != 0)
        sim::panic("NetworkSimulation: simulation drained with "
                   "outstanding misses");

    RunMetrics m;
    m.config = _config.name();
    m.workload = _workload.name();
    m.requests_issued = issued - _params.warmup_requests;
    m.requests_coalesced = coalesced;
    m.elapsed = end_tick > _measureStart ? end_tick - _measureStart : 1;
    const double seconds = sim::ticksToSeconds(m.elapsed);
    m.achieved_bytes_per_second =
        static_cast<double>(_ctx.system().memoryBytesMoved() -
                            _bytesAtMeasureStart) /
        seconds;
    m.avg_latency_ns =
        latency.mean() / static_cast<double>(sim::oneNanosecond);
    m.p95_latency_ns = latency_hist.percentile(0.95);
    m.offered_bytes_per_second = _workload.offeredBytesPerSecond();
    // The context was pristine at construction, so the queues'
    // lifetime counters are exactly this run's event count.
    m.events_executed = _exec ? _exec->executed() : _eq.executed();
    m.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();

    const noc::NetStats &net = _ctx.system().network().netStats();
    m.hop_traversals = net.hopTraversals.value() - _hopsAtMeasureStart;
    switch (_config.network) {
      case NetworkKind::XBar:
        m.network_power_w = power::xbarNetworkPowerW();
        break;
      case NetworkKind::HMesh:
      case NetworkKind::LMesh:
        m.network_power_w =
            power::meshNetworkPowerW(m.hop_traversals, m.elapsed);
        break;
      case NetworkKind::Ideal:
        m.network_power_w = 0.0;
        break;
    }
    if (const auto *xbar = _ctx.system().crossbar()) {
        m.token_wait_ns = xbar->meanTokenWait() /
                          static_cast<double>(sim::oneNanosecond);
    }
    for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
        m.mshr_full_stalls += _ctx.system().hub(c).mshrs().fullStalls();
        m.peak_mc_queue = std::max<std::uint64_t>(
            m.peak_mc_queue, _ctx.system().mc(c).peakQueueDepth());
    }
    return m;
}

RunMetrics
runExperiment(SimContext &ctx, workload::Workload &workload,
              const SimParams &params, const obs::RunObservability &obs)
{
    NetworkSimulation sim(ctx, workload, params);
    if (!obs.enabled())
        return sim.run();
    // Constructed after the simulation: the pristine check above must
    // not see sampler events, and the destructor detaches the tracer so
    // a pooled system never keeps a dangling pointer across leases.
    obs::RunObserver observer(ctx, obs);
    observer.start();
    RunMetrics metrics = sim.run();
    observer.finish();
    return metrics;
}

RunMetrics
runExperiment(const SystemConfig &config, workload::Workload &workload,
              const SimParams &params, const obs::RunObservability &obs)
{
    // A fresh context is pristine. Tracing pins the run to the classic
    // engine: the shared trace ring's eviction order is not
    // shard-count-invariant.
    SimContext ctx(config,
                   effectiveSimThreads(params.sim_threads, config,
                                       workload,
                                       params.warmup_requests,
                                       obs.enabled() &&
                                           obs.trace_capacity > 0));
    return runExperiment(ctx, workload, params, obs);
}

std::optional<std::uint64_t>
parsePositiveCount(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char ch : text) {
        if (ch < '0' || ch > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(ch - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // Would overflow.
        value = value * 10 + digit;
    }
    if (value == 0)
        return std::nullopt;
    return value;
}

std::uint64_t
defaultRequestBudget()
{
    if (const auto value = env::positiveCount("CORONA_REQUESTS"))
        return *value;
    return 50'000;
}

} // namespace corona::core
