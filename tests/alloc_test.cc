/**
 * @file
 * Allocation gates for the simulator's hot paths. This executable
 * replaces the global operator new/delete with counting versions, so it
 * is a test binary of its own: linking the counters into another suite
 * would count that suite's allocations too.
 *
 * Each full-system gate runs one configuration twice on one pooled
 * SimContext and counts the allocations of the second run only, when
 * every pool, ring and buffer has already grown to its working size.
 * The ceilings sit above the measured steady state with margin; a
 * per-miss heap node in the MSHR file, a std::deque on a message path
 * or a heap-stored event capture breaks them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <vector>

#include "corona/context.hh"
#include "corona/frontend.hh"
#include "corona/simulation.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "workload/sharing.hh"
#include "workload/synthetic.hh"
#include "xbar/optical_channel.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace corona;

/** Allocations per executed event of the second of two identical
 * runs of @p make's workload on @p ctx, reset in between. */
double
steadyAllocsPerEvent(core::SimContext &ctx,
                     std::unique_ptr<workload::Workload> (*make)())
{
    core::SimParams params;
    params.requests = 20'000;
    params.seed = 5;
    auto warm = make();
    core::runExperiment(ctx, *warm, params);
    ctx.reset();

    auto workload = make();
    const std::uint64_t before = allocations.load();
    const core::RunMetrics metrics =
        core::runExperiment(ctx, *workload, params);
    const std::uint64_t allocs = allocations.load() - before;
    EXPECT_GT(metrics.events_executed, 0u);
    const double per_event = static_cast<double>(allocs) /
                             static_cast<double>(metrics.events_executed);
    std::cout << "  " << allocs << " allocations over "
              << metrics.events_executed << " events = " << per_event
              << " per event\n";
    return per_event;
}

TEST(Allocations, CrossbarRunStaysBelowCeiling)
{
    core::SimContext ctx(
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM));
    EXPECT_LT(steadyAllocsPerEvent(ctx, workload::makeUniform), 0.001);
}

TEST(Allocations, MeshRunStaysBelowCeiling)
{
    core::SimContext ctx(
        core::makeConfig(core::NetworkKind::HMesh, core::MemoryKind::ECM));
    EXPECT_LT(steadyAllocsPerEvent(ctx, workload::makeUniform), 0.01);
}

TEST(Allocations, CoherentBroadcastRunStaysBelowCeiling)
{
    // Producer-Consumer invalidates whole sharer pools, so with
    // broadcast invalidation (threshold 2) the broadcast bus carries
    // them. The ceiling sits about 10% above what the coherent front
    // end's caches, peers and line records still allocate (0.131 per
    // event); a heap-stored broadcast delivery would add over 0.5.
    core::SystemConfig config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    config.inval_policy = coherence::InvalPolicy::Broadcast;
    config.broadcast_threshold = 2;
    core::SimContext ctx(config);
    EXPECT_LT(steadyAllocsPerEvent(ctx, workload::makeProducerConsumer),
              0.145);
    const core::CoherentFrontEnd *frontend = ctx.system().frontEnd();
    ASSERT_NE(frontend, nullptr);
    std::cout << "  " << frontend->broadcasts() << " broadcasts\n";
    EXPECT_GT(frontend->broadcasts(), 0u);
}

/** Interleave 8 sources, 40 messages each, into a depth-1 home buffer
 * so credit stalls park sources; record every delivery. */
void
driveChannel(sim::EventQueue &eq, xbar::OpticalChannel &channel)
{
    for (std::uint64_t i = 0; i < 40; ++i) {
        for (topology::ClusterId src = 1; src <= 8; ++src) {
            noc::Message msg;
            msg.src = src * 7;
            msg.dst = channel.home();
            msg.kind = i % 3 == 0 ? noc::MsgKind::ReadResp
                                  : noc::MsgKind::ReadReq;
            msg.tag = i;
            channel.send(msg);
        }
    }
    eq.run();
}

TEST(Allocations, ChannelResetAndRerunAllocatesNothing)
{
    sim::EventQueue eq;
    xbar::ChannelParams params;
    params.sink_buffer_depth = 1;
    xbar::OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    std::vector<sim::Tick> ticks;
    ticks.reserve(1024);
    channel.setDeliver([&](const noc::Message &) {
        ticks.push_back(eq.now());
    });
    driveChannel(eq, channel);
    const std::vector<sim::Tick> first = ticks;

    ticks.clear();
    const std::uint64_t before = allocations.load();
    eq.reset();
    channel.reset();
    driveChannel(eq, channel);
    EXPECT_EQ(allocations.load() - before, 0u);
    EXPECT_EQ(ticks, first);
}

} // namespace
