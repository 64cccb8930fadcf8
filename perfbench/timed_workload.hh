/**
 * @file
 * A delegating Workload decorator that counts and times every call the
 * simulator makes into the workload layer, so the traced run can split
 * a cell's host time between the workload (generator or trace decode)
 * and everything else. Every call forwards unchanged, so wrapping never
 * changes results.
 *
 * The decorator is installed by wrapping a campaign's workload
 * factories (timedFactory), so the campaign runner's own pooled path
 * builds, leases and runs it. Its figures go to a per-thread tally,
 * because each campaign worker owns its workloads: the thread that
 * finishes a cell drains the tally of that cell (WorkloadTally::drain).
 */

#ifndef PERFBENCH_TIMED_WORKLOAD_HH
#define PERFBENCH_TIMED_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Every kSampleEvery-th workload call is also kept as a span. */
inline constexpr std::uint64_t kSampleEvery = 1024;

/** What the decorators on one thread measured since the last drain. */
struct WorkloadTally
{
    std::uint64_t calls = 0;
    std::int64_t call_ns = 0;
    /** Constructions through timedFactory (a trace open, for a replay). */
    std::uint64_t builds = 0;
    std::int64_t build_ns = 0;
    /** The workload lease: a construction or a reset. */
    std::int64_t lease_ns = 0;
    Clock::time_point lease_begin{};
    Clock::time_point lease_end{};
    /** Start and end of every kSampleEvery-th call. */
    std::vector<std::pair<Clock::time_point, Clock::time_point>> samples;

    /** This thread's tally. */
    static WorkloadTally &
    local()
    {
        thread_local WorkloadTally tally;
        return tally;
    }

    /** Take this thread's tally, leaving it empty. */
    static WorkloadTally
    drain()
    {
        return std::exchange(local(), WorkloadTally{});
    }

    void
    addLease(Clock::time_point begin, Clock::time_point end)
    {
        if (lease_ns == 0)
            lease_begin = begin;
        lease_end = end;
        lease_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - begin)
                        .count();
    }
};

class TimedWorkload final : public corona::workload::Workload
{
  public:
    explicit TimedWorkload(std::unique_ptr<corona::workload::Workload> inner)
        : _inner(std::move(inner))
    {
    }

    std::string name() const override { return _inner->name(); }

    corona::workload::MissRequest
    next(std::size_t thread, corona::sim::Tick now,
         corona::sim::Rng &rng) override
    {
        const Clock::time_point start = Clock::now();
        const auto request = _inner->next(thread, now, rng);
        account(start);
        return request;
    }

    corona::workload::ReferenceRequest
    nextReference(std::size_t thread, corona::sim::Tick now,
                  corona::sim::Rng &rng) override
    {
        const Clock::time_point start = Clock::now();
        const auto request = _inner->nextReference(thread, now, rng);
        account(start);
        return request;
    }

    std::uint64_t paperRequests() const override
    {
        return _inner->paperRequests();
    }
    double offeredBytesPerSecond() const override
    {
        return _inner->offeredBytesPerSecond();
    }
    std::size_t threads() const override { return _inner->threads(); }
    bool
    partitionable(std::size_t clusters,
                  std::size_t threads_per_cluster) const override
    {
        return _inner->partitionable(clusters, threads_per_cluster);
    }

    void
    reset() override
    {
        const Clock::time_point start = Clock::now();
        _inner->reset();
        WorkloadTally::local().addLease(start, Clock::now());
    }

  private:
    void
    account(Clock::time_point start)
    {
        const Clock::time_point end = Clock::now();
        WorkloadTally &tally = WorkloadTally::local();
        tally.call_ns +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count();
        if (++_calls % kSampleEvery == 0)
            tally.samples.emplace_back(start, end);
        ++tally.calls;
    }

    std::unique_ptr<corona::workload::Workload> _inner;
    std::uint64_t _calls = 0;
};

using WorkloadMaker =
    std::function<std::unique_ptr<corona::workload::Workload>()>;

/** @p make, with its product wrapped in a TimedWorkload and its
 * construction timed as a build and a workload lease. */
inline WorkloadMaker
timedFactory(WorkloadMaker make)
{
    return [make = std::move(make)]()
               -> std::unique_ptr<corona::workload::Workload> {
        const Clock::time_point start = Clock::now();
        auto inner = make();
        if (!inner)
            return nullptr;
        auto timed = std::make_unique<TimedWorkload>(std::move(inner));
        const Clock::time_point end = Clock::now();
        WorkloadTally &tally = WorkloadTally::local();
        ++tally.builds;
        tally.build_ns +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count();
        tally.addLease(start, end);
        return timed;
    };
}

} // namespace perfbench

#endif // PERFBENCH_TIMED_WORKLOAD_HH
