/**
 * @file
 * Self-tests of the benchmark's own statistics and of the Workload
 * decorator, on fixed inputs. The driver runs them before every
 * measurement (they take milliseconds) and alone with --self-test.
 */

#include "selftest.hh"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "stats.hh"
#include "timed_workload.hh"
#include "workload/registry.hh"

namespace perfbench {

namespace {

using corona::workload::MissRequest;
using corona::workload::Workload;

bool
near(double a, double b, double tolerance = 1e-9)
{
    return std::fabs(a - b) <= tolerance;
}

bool
sameRequest(const MissRequest &a, const MissRequest &b)
{
    return a.think_time == b.think_time && a.line == b.line &&
           a.home == b.home && a.write == b.write;
}

/** A workload whose every answer is distinctive, to prove the
 * decorator forwards each query rather than using a base default. */
class ProbeWorkload final : public Workload
{
  public:
    std::string name() const override { return "probe"; }
    MissRequest
    next(std::size_t thread, corona::sim::Tick now,
         corona::sim::Rng &) override
    {
        return {now + 1, 100 + thread, 3, false};
    }
    MissRequest
    nextReference(std::size_t thread, corona::sim::Tick now,
                  corona::sim::Rng &) override
    {
        return {now + 2, 200 + thread, 5, true};
    }
    std::uint64_t paperRequests() const override { return 77; }
    double offeredBytesPerSecond() const override { return 1.5e9; }
    std::size_t threads() const override { return 48; }
    bool
    partitionable(std::size_t clusters,
                  std::size_t threads_per_cluster) const override
    {
        return clusters == 3 && threads_per_cluster == 16;
    }
    void reset() override { ++resets; }

    int resets = 0;
};

/** Draw @p calls requests alternating next/nextReference from a bare
 * and a wrapped instance of one model, and compare them. */
bool
replaysIdentically(Workload &bare, Workload &wrapped, int calls)
{
    corona::sim::Rng bare_rng(42), wrapped_rng(42);
    for (int i = 0; i < calls; ++i) {
        const std::size_t thread = static_cast<std::size_t>(i) % 1024;
        const corona::sim::Tick now = static_cast<corona::sim::Tick>(i) * 7;
        const bool reference = i % 2 == 1;
        const MissRequest a =
            reference ? bare.nextReference(thread, now, bare_rng)
                      : bare.next(thread, now, bare_rng);
        const MissRequest b =
            reference ? wrapped.nextReference(thread, now, wrapped_rng)
                      : wrapped.next(thread, now, wrapped_rng);
        if (!sameRequest(a, b))
            return false;
    }
    return true;
}

} // namespace

int
runSelfTests(std::ostream &log)
{
    int failures = 0;
    const auto check = [&](bool ok, const char *what) {
        if (!ok) {
            log << "perfbench self-test FAILED: " << what << "\n";
            ++failures;
        }
    };

    // Median and quartiles against statistics.median / .quantiles.
    check(near(median({5, 1, 3}), 3.0), "median of odd count");
    check(near(median({4, 1, 3, 2}), 2.5), "median of even count");
    {
        const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        check(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
              "quartiles of 1..10");
        const auto q3 = quartiles({3, 1, 2});
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        check(near(q3[0], 1.0) && near(q3[1], 2.0) && near(q3[2], 3.0),
              "quartiles of three values");
        const auto q2 = quartiles({10, 20});
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        check(near(q2[0], 7.5) && near(q2[1], 15.0) && near(q2[2], 22.5),
              "quartiles of two values");
    }

    // Tail: the highest percentile with at least ten samples beyond.
    {
        std::vector<double> hundred;
        for (int i = 100; i >= 1; --i)
            hundred.push_back(i);
        const Tail t = tailPercentile(hundred);
        check(t.defined && near(t.value, 90.0) && near(t.percentile, 90.0),
              "tail of 1..100 is p90 = 90");
        std::vector<double> seventy_five;
        for (int i = 1; i <= 75; ++i)
            seventy_five.push_back(i);
        const Tail t75 = tailPercentile(seventy_five);
        check(t75.defined && near(t75.value, 65.0) &&
                  near(t75.percentile, 100.0 * 65.0 / 75.0),
              "tail of 1..75 leaves ten beyond");
        const Tail few = tailPercentile({4, 1, 3, 2, 5});
        check(!few.defined && near(few.value, 5.0),
              "tail of five samples falls back to the maximum");
    }

    // fidelity_err: the ISCA Section 5 geomeans against the values a
    // 50k-request sweep produced (2.29, 3.25, 1.74, 1.26).
    {
        const double expected =
            (std::log(3.28 / 2.29) + std::log(3.25 / 2.36) +
             std::log(1.80 / 1.74) + std::log(1.44 / 1.26)) /
            4.0;
        check(near(fidelityError({2.29, 3.25, 1.74, 1.26}), expected),
              "fidelity_err of the 50k-request geomeans");
        check(near(expected, 0.2118, 5e-4), "fidelity_err is about 0.21");
        check(near(fidelityError(kPaperGeomeans), 0.0),
              "fidelity_err of the paper itself is zero");
    }

    // Span self times: overlapping children are covered once, and a
    // sampled call counts through its parent's inner time only.
    {
        const auto span = [](std::uint64_t id, std::uint64_t parent,
                             const char *name, std::int64_t start,
                             std::int64_t end, std::int64_t inner = 0,
                             bool sampled = false) {
            Span s;
            s.id = id;
            s.parent = parent;
            s.name = name;
            s.start_ns = start;
            s.end_ns = end;
            s.inner_ns = inner;
            s.sampled = sampled;
            return s;
        };
        const auto self = selfTimes({
            span(1, 0, "pass", 0, 100),
            span(2, 1, "cell", 10, 60),
            span(3, 1, "cell", 40, 90),
            span(4, 2, "simulate", 20, 50, 10),
            span(5, 4, "workload_call", 25, 30, 0, true),
        });
        check(self.at("pass") == 20 && self.at("cell") == 20 + 50 &&
                  self.at("simulate") == 20 &&
                  self.count("workload_call") == 0,
              "span self times");
    }

    // The decorator forwards every query and every draw, and its
    // factory wrapper counts the build as a workload lease.
    {
        WorkloadTally::drain();
        auto owned = std::make_unique<ProbeWorkload>();
        ProbeWorkload &probe = *owned;
        TimedWorkload wrapped(std::move(owned));
        corona::sim::Rng rng(1);
        check(wrapped.name() == "probe", "decorator forwards name");
        check(wrapped.threads() == 48, "decorator forwards threads");
        check(wrapped.paperRequests() == 77 &&
                  wrapped.offeredBytesPerSecond() == 1.5e9,
              "decorator forwards paper requests and offered load");
        check(wrapped.partitionable(3, 16) && !wrapped.partitionable(64, 16),
              "decorator forwards partitionable");
        wrapped.reset();
        check(probe.resets == 1, "decorator forwards reset");
        check(wrapped.nextReference(2, 10, rng).line == 202 &&
                  wrapped.next(2, 10, rng).line == 102,
              "decorator forwards next and nextReference separately");
        const WorkloadTally tally = WorkloadTally::drain();
        check(tally.calls == 2 && tally.builds == 0 && tally.lease_ns > 0,
              "decorator counts every call and times the reset");

        const auto built =
            timedFactory([] { return std::make_unique<ProbeWorkload>(); })();
        const WorkloadTally build = WorkloadTally::drain();
        check(built && built->threads() == 48 && build.builds == 1 &&
                  build.lease_ns == build.build_ns,
              "timed factory wraps and times the build");

        for (const char *model : {"Uniform", "Migratory", "Barnes"}) {
            const auto factory = corona::workload::registryFactory(model);
            const auto bare = factory();
            const auto timed = timedFactory(factory)();
            bool same = replaysIdentically(*bare, *timed, 4000);
            bare->reset();
            timed->reset();
            same = same && replaysIdentically(*bare, *timed, 4000);
            const WorkloadTally replay = WorkloadTally::drain();
            check(same && replay.calls == 8000 &&
                      replay.samples.size() == 8000 / kSampleEvery &&
                      timed->partitionable(64, 16) ==
                          bare->partitionable(64, 16),
                  (std::string("decorated ") + model +
                   " replays the bare model")
                      .c_str());
        }
    }
    return failures;
}

} // namespace perfbench
