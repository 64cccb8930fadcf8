#include "campaign/runner.hh"

#include "campaign/obs_rollup.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "corona/env.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"

namespace corona::campaign {

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Shared body of the fresh-system and pooled execution paths.
 * @p workloads, @p obs, and @p lease_seconds are optional extras used
 * by the runner's worker loop: workload pooling, per-run observability,
 * and lease-cost accounting for heartbeats.
 */
RunRecord
executePlanWith(const RunPlan &plan, core::SystemPool *pool,
                WorkloadCache *workloads,
                const obs::RunObservability *obs,
                double *lease_seconds)
{
    RunRecord record;
    record.index = plan.index;
    record.workload_index = plan.workload_index;
    record.config_index = plan.config_index;
    record.seed_index = plan.seed_index;
    record.override_index = plan.override_index;
    record.workload = plan.workload;
    record.config = plan.config;
    record.override_label = plan.override_label;
    record.seed = plan.params.seed;

    const auto start = std::chrono::steady_clock::now();
    try {
        std::unique_ptr<workload::Workload> owned;
        workload::Workload *workload = nullptr;
        const auto lease_start = std::chrono::steady_clock::now();
        if (workloads) {
            workload = &workloads->lease(plan);
        } else {
            owned = plan.make_workload();
            if (!owned)
                sim::fatal("campaign: workload factory for \"" +
                           plan.workload + "\" returned null");
            workload = owned.get();
        }
        core::SimContext *ctx = pool ? &pool->lease(plan.system) : nullptr;
        if (lease_seconds)
            *lease_seconds = secondsSince(lease_start);
        if (obs && obs->enabled()) {
            record.metrics =
                ctx ? core::runExperiment(*ctx, *workload, plan.params,
                                          *obs)
                    : core::runExperiment(plan.system, *workload,
                                          plan.params, *obs);
        } else {
            record.metrics =
                ctx ? core::runExperiment(*ctx, *workload, plan.params)
                    : core::runExperiment(plan.system, *workload,
                                          plan.params);
        }
    } catch (const std::exception &e) {
        record.ok = false;
        record.error = e.what();
        record.metrics = core::RunMetrics{};
        record.metrics.workload = plan.workload;
        record.metrics.config = plan.config;
    }
    record.wall_seconds = secondsSince(start);
    return record;
}

} // namespace

RunRecord
executePlan(const RunPlan &plan)
{
    return executePlanWith(plan, nullptr, nullptr, nullptr, nullptr);
}

CampaignRunner::CampaignRunner(RunnerOptions options)
    : _options(options)
{
}

void
CampaignRunner::addSink(ResultSink &sink)
{
    _sinks.push_back(&sink);
}

std::size_t
resolveWorkerThreads(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const auto jobs = core::env::positiveCount("CORONA_JOBS"))
        return static_cast<std::size_t>(*jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::size_t
CampaignRunner::effectiveThreads(std::size_t total_runs) const
{
    return std::min(resolveWorkerThreads(_options.threads), total_runs);
}

std::vector<RunRecord>
CampaignRunner::run(const CampaignSpec &spec)
{
    return run(spec, {});
}

std::vector<RunRecord>
CampaignRunner::run(const CampaignSpec &spec,
                    std::vector<RunRecord> completed)
{
    std::vector<RunPlan> plans = expand(spec);
    applyShard(plans, _options.shard);
    const std::size_t total = plans.size();

    // Replayed records fill their slot up front; only successful runs
    // count as done (a failed run re-executes on resume), and records
    // from other shards of the grid are simply not this process's.
    std::vector<std::optional<RunRecord>> slots(total);
    {
        std::unordered_map<std::size_t, std::size_t> slot_by_index;
        slot_by_index.reserve(total);
        for (std::size_t p = 0; p < total; ++p)
            slot_by_index.emplace(plans[p].index, p);
        for (RunRecord &record : completed) {
            const auto it = slot_by_index.find(record.index);
            if (it == slot_by_index.end() || !record.ok)
                continue;
            slots[it->second] = std::move(record);
        }
    }

    // Slot positions still needing execution, in ascending run index.
    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t p = 0; p < total; ++p) {
        if (!slots[p])
            pending.push_back(p);
    }
    const std::size_t threads = effectiveThreads(pending.size());

    const auto campaign_start = std::chrono::steady_clock::now();
    if (_options.heartbeat) {
        _options.heartbeat->write(
            obs::heartbeatEvent("campaign_begin")
                .field("campaign", spec.name)
                .field("runs", static_cast<std::uint64_t>(total))
                .field("replayed", static_cast<std::uint64_t>(
                                       total - pending.size()))
                .field("pending",
                       static_cast<std::uint64_t>(pending.size()))
                .field("threads",
                       static_cast<std::uint64_t>(threads)));
    }

    for (ResultSink *sink : _sinks)
        sink->begin(spec, total);
    if (_options.progress)
        _options.progress->begin(spec, total, total - pending.size(),
                                 threads);

    // Workers pull the next un-run plan; completed records land in
    // their index slot, and every consecutive ready record is flushed
    // to the sinks so serialisation order never depends on threading.
    std::atomic<std::size_t> next_plan{0};
    std::mutex emit_mutex;
    std::size_t next_emit = 0;
    // First exception a sink or the progress reporter throws: stop
    // dispatching and rethrow on the caller's thread after the join —
    // escaping a std::thread body would call std::terminate.
    std::exception_ptr emit_error;

    // Flush every consecutive ready slot to the sinks. Caller holds
    // emit_mutex (or is still single-threaded).
    const auto flushReady = [&] {
        while (next_emit < total && slots[next_emit]) {
            for (ResultSink *sink : _sinks)
                sink->consume(*slots[next_emit]);
            ++next_emit;
        }
    };

    // Replayed records at the head of the grid (and a fully resumed
    // campaign's entire record list) flush before any worker starts.
    flushReady();

    // Observability and workload pooling apply only on the
    // event-simulator path: a custom executor owns its own execution
    // (and the scenario layer rejects [observability] for the model).
    const bool observe =
        !_options.execute && _options.observability.enabled();
    // The campaign rollup: every executed cell's end-of-run registry
    // capture, grouped by config. Workers append under a mutex; the
    // file write at the end sorts, so the bytes are thread-count
    // independent.
    const bool rollup_on = observe && _options.observability.rollup;
    ObsRollup rollup;
    std::mutex rollup_mutex;

    const auto worker = [&](std::size_t worker_id) {
        // Each worker thread owns its pool: contexts are leased and
        // reset between this worker's cells, never shared across
        // threads. Per-run seeds come from the plan, so pooling cannot
        // perturb results regardless of which worker runs which cell.
        core::SystemPool pool;
        WorkloadCache workloads;
        std::uint64_t cells = 0;
        while (true) {
            const std::size_t at =
                next_plan.fetch_add(1, std::memory_order_relaxed);
            if (at >= pending.size())
                break;
            const std::size_t idx = pending[at];
            obs::RunObservability run_obs;
            obs::RollupCapture capture;
            if (observe) {
                run_obs =
                    _options.observability.forRun(plans[idx].index);
                if (rollup_on) {
                    // Only the first run of a config copies the ~2000
                    // probe paths out; later runs carry values alone.
                    // Two workers racing a config's first run both
                    // copy, harmlessly (addRun checks they agree).
                    std::scoped_lock lock(rollup_mutex);
                    capture.want_paths =
                        !rollup.hasGroup(plans[idx].config);
                    run_obs.capture = &capture;
                }
            }
            double lease_seconds = 0.0;
            RunRecord record =
                _options.execute
                    ? _options.execute(plans[idx])
                    : executePlanWith(plans[idx], &pool, &workloads,
                                      observe ? &run_obs : nullptr,
                                      &lease_seconds);
            ++cells;
            if (rollup_on && record.ok) {
                std::scoped_lock lock(rollup_mutex);
                rollup.addRun(plans[idx].config, plans[idx].index,
                              capture.end_tick, capture.paths,
                              std::move(capture.values));
            }
            if (_options.heartbeat) {
                const double wall = record.wall_seconds;
                const double events = static_cast<double>(
                    record.metrics.events_executed);
                _options.heartbeat->write(
                    obs::heartbeatEvent("cell")
                        .field("worker", static_cast<std::uint64_t>(
                                             worker_id))
                        .field("run", static_cast<std::uint64_t>(
                                          plans[idx].index))
                        .field("workload", plans[idx].workload)
                        .field("config", plans[idx].config)
                        .field("seed", plans[idx].params.seed)
                        .field("ok", record.ok)
                        .field("wall_s", wall)
                        .field("lease_s", lease_seconds)
                        .field("events",
                               record.metrics.events_executed)
                        .field("ev_per_s",
                               wall > 0.0 ? events / wall : 0.0));
            }

            std::scoped_lock lock(emit_mutex);
            slots[idx] = std::move(record);
            if (emit_error)
                continue;
            try {
                if (_options.progress)
                    _options.progress->completed(*slots[idx]);
                flushReady();
            } catch (...) {
                emit_error = std::current_exception();
                next_plan.store(pending.size(),
                                std::memory_order_relaxed);
            }
        }
        if (_options.heartbeat) {
            _options.heartbeat->write(
                obs::heartbeatEvent("worker_done")
                    .field("worker",
                           static_cast<std::uint64_t>(worker_id))
                    .field("cells", cells)
                    .field("pool_reuses", pool.reuses())
                    .field("workload_reuses", workloads.reuses()));
        }
    };

    if (threads <= 1) {
        if (!pending.empty())
            worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (std::thread &thread : pool)
            thread.join();
    }

    if (emit_error)
        std::rethrow_exception(emit_error);

    for (ResultSink *sink : _sinks)
        sink->end();
    if (_options.progress)
        _options.progress->end();

    if (rollup_on) {
        // One rollup file per process; a sharded shard writes a
        // suffixed file corona-launch later merges, like checkpoints.
        std::string path = _options.observability.dir + "/rollup";
        if (!_options.shard.isWhole()) {
            path += "-" + std::to_string(_options.shard.index + 1) +
                    "-" + std::to_string(_options.shard.count);
        }
        writeRollupFile(path + ".csv", rollup);
    }

    std::vector<RunRecord> records;
    records.reserve(total);
    for (std::optional<RunRecord> &slot : slots) {
        if (!slot)
            sim::panic("CampaignRunner: drained pool left a hole in "
                       "the result list");
        records.push_back(std::move(*slot));
    }

    if (_options.heartbeat) {
        std::uint64_t done = 0;
        std::uint64_t failed = 0;
        for (const RunRecord &record : records)
            (record.ok ? done : failed) += 1;
        _options.heartbeat->write(
            obs::heartbeatEvent("campaign_end")
                .field("campaign", spec.name)
                .field("done", done)
                .field("failed", failed)
                .field("wall_s", secondsSince(campaign_start)));
    }
    return records;
}

} // namespace corona::campaign
