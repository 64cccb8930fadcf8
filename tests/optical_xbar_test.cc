/**
 * @file
 * Unit and property tests for the MWSR optical channel and the full
 * photonic crossbar (Section 3.2.1): single-clock line serialization,
 * propagation bounds, bandwidth ceilings, per-source ordering, and
 * flow-control back-pressure.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "obs/trace.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "xbar/optical_channel.hh"
#include "xbar/optical_xbar.hh"

namespace {

using namespace corona;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;
using xbar::ChannelParams;
using xbar::OpticalChannel;
using xbar::OpticalCrossbar;

constexpr Tick kClock = 200;

Message
makeMsg(topology::ClusterId src, topology::ClusterId dst,
        MsgKind kind = MsgKind::ReadReq, std::uint64_t tag = 0)
{
    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.kind = kind;
    msg.tag = tag;
    return msg;
}

TEST(OpticalChannel, BandwidthIs2560Gbps)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    // 64 B per 5 GHz clock = 320 GB/s = 2.56 Tb/s (Section 3.2.1).
    EXPECT_DOUBLE_EQ(channel.bandwidthBytesPerSecond(), 320e9);
}

TEST(OpticalChannel, CacheLineSerializesInOneClock)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    // "A 64-byte cache line can be sent ... in one 5 GHz clock."
    EXPECT_EQ(channel.serializationTime(64), kClock);
    // With the 16 B header it takes a second clock.
    EXPECT_EQ(channel.serializationTime(80), 2 * kClock);
    EXPECT_EQ(channel.serializationTime(16), kClock);
}

TEST(OpticalChannel, PropagationAtMostEightClocks)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    for (topology::ClusterId src = 1; src < 64; ++src) {
        const Tick prop = channel.propagationTime(src);
        EXPECT_LE(prop, 8 * kClock + kClock)
            << "propagation (incl. wrap retiming) from " << src;
        EXPECT_GT(prop, 0u);
    }
    // Nearest upstream neighbour (cluster 63 -> home 0) is one hop and
    // crosses the wrap, paying one clock of retiming.
    EXPECT_EQ(channel.propagationTime(63), 25u + kClock);
}

TEST(OpticalChannel, DeliversWithCorrectLatency)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 8);
    std::vector<Tick> deliveries;
    channel.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    channel.send(makeMsg(4, 8, MsgKind::ReadReq));
    eq.run();
    ASSERT_EQ(deliveries.size(), 1u);
    // token wait (4 hops: token starts at home 8... within a loop) +
    // 1 clock serialization + 4 hops propagation + drain alignment.
    EXPECT_LE(deliveries[0], channel.arbiter().loopTime() + kClock +
                                 4 * 25 + 2 * kClock);
}

TEST(OpticalChannel, PerSourceOrderingPreserved)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 7);
    std::vector<std::uint64_t> tags;
    channel.setDeliver([&](const Message &msg) {
        tags.push_back(msg.tag);
    });
    for (std::uint64_t i = 0; i < 10; ++i)
        channel.send(makeMsg(3, 7, MsgKind::ReadReq, i));
    eq.run();
    ASSERT_EQ(tags.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(tags[i], i);
}

TEST(OpticalChannel, RejectsForeignDestination)
{
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 7);
    EXPECT_THROW(channel.send(makeMsg(3, 8)), sim::PanicError);
}

TEST(OpticalChannel, ThroughputApproachesOneLinePerClock)
{
    // "When many clusters want the same channel and contention is
    // high, token transfer time is low and channel utilization is
    // high" (Section 3.2.3): with all 63 foreign clusters contending,
    // the token only ever moves neighbour to neighbour.
    EventQueue eq;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    int delivered = 0;
    channel.setDeliver([&](const Message &) { ++delivered; });
    const int per_sender = 10;
    for (int i = 0; i < per_sender; ++i) {
        for (topology::ClusterId s = 1; s < 64; ++s)
            channel.send(makeMsg(s, 0, MsgKind::ReadResp));
    }
    eq.run();
    EXPECT_EQ(delivered, 63 * per_sender);
    // 630 messages x 2 clocks of modulation = 1260 clocks minimum;
    // ring-order handoffs add ~8 clocks per 63-message round, so the
    // total must stay within ~15% of the serialization bound.
    const double clocks = static_cast<double>(eq.now()) / kClock;
    EXPECT_GE(clocks, 1260);
    EXPECT_LT(clocks, 1260 * 1.15);
}

TEST(OpticalChannel, BatchHoldsTokenAcrossBacklog)
{
    // A lone sender with a queued backlog sends max_batch messages per
    // grant instead of paying a full token revolution per message.
    EventQueue eq;
    xbar::ChannelParams params;
    params.max_batch = 4;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    channel.setDeliver([](const Message &) {});
    for (int i = 0; i < 8; ++i)
        channel.send(makeMsg(16, 0, MsgKind::ReadResp));
    eq.run();
    // 8 messages in 2 batches: 2 grants, not 8.
    EXPECT_EQ(channel.arbiter().grants(), 2u);
}

TEST(OpticalChannel, BatchRespectsLimitUnderContention)
{
    EventQueue eq;
    xbar::ChannelParams params;
    params.max_batch = 2;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    std::vector<unsigned> sources;
    channel.setDeliver([&](const Message &msg) {
        sources.push_back(static_cast<unsigned>(msg.src));
    });
    // Two contending senders with deep backlogs must interleave in
    // runs of at most max_batch.
    for (int i = 0; i < 6; ++i) {
        channel.send(makeMsg(10, 0, MsgKind::ReadResp));
        channel.send(makeMsg(40, 0, MsgKind::ReadResp));
    }
    eq.run();
    ASSERT_EQ(sources.size(), 12u);
    unsigned run_length = 1;
    for (std::size_t i = 1; i < sources.size(); ++i) {
        run_length = sources[i] == sources[i - 1] ? run_length + 1 : 1;
        EXPECT_LE(run_length, 2u)
            << "batch limit must bound monopolization";
    }
}

/** One delivery seen by the home hub. */
using Delivery = std::tuple<Tick, topology::ClusterId, std::uint64_t, Tick>;

/** Send @p per_source messages from each of @p sources to @p channel,
 * round-robin across sources; each tag is src * 1000 + sequence, the
 * sequence starting at @p first. */
void
sendInterleaved(OpticalChannel &channel,
                const std::vector<topology::ClusterId> &sources,
                std::uint64_t per_source, std::uint64_t first = 0)
{
    for (std::uint64_t i = first; i < first + per_source; ++i) {
        for (topology::ClusterId src : sources) {
            channel.send(makeMsg(src, channel.home(),
                                 i % 2 ? MsgKind::ReadResp
                                       : MsgKind::ReadReq,
                                 src * 1000 + i));
        }
    }
}

/** Record every delivery of @p channel as (tick, src, tag, injected). */
void
recordDeliveries(EventQueue &eq, OpticalChannel &channel,
                 std::vector<Delivery> &out)
{
    channel.setDeliver([&eq, &out](const Message &msg) {
        out.emplace_back(eq.now(), msg.src, msg.tag, msg.injected);
    });
}

TEST(OpticalChannel, PerSourceOrderHoldsUnderCreditStalls)
{
    // A one-slot home buffer parks all but one ready source on credit
    // at a time; each source's messages must still arrive in order.
    EventQueue eq;
    ChannelParams params;
    params.sink_buffer_depth = 1;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    std::vector<Delivery> got;
    recordDeliveries(eq, channel, got);
    const std::vector<topology::ClusterId> sources = {5, 17, 33, 60};
    sendInterleaved(channel, sources, 12);
    eq.run(3000);
    sendInterleaved(channel, {17, 2}, 5, 12); // Joins mid-run.
    eq.run();

    ASSERT_EQ(got.size(), 4u * 12u + 2u * 5u);
    std::map<topology::ClusterId, std::uint64_t> next = {{2, 12}};
    std::size_t switches = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto src = std::get<1>(got[i]);
        EXPECT_EQ(std::get<2>(got[i]), src * 1000 + next[src]++)
            << "delivery " << i;
        if (i > 0 && std::get<1>(got[i - 1]) != src)
            ++switches;
    }
    EXPECT_EQ(next[17], 17u); // 12, then 5 more through one FIFO.
    EXPECT_EQ(next[2], 17u);
    EXPECT_GT(switches, 10u) << "sources must interleave";
    EXPECT_EQ(channel.queuedMessages(), 0u);
}

TEST(OpticalChannel, QueuedMessagesMatchesAHandCount)
{
    // A message is queued from send() until its serialization ends,
    // which is the end tick of its ChannelGrant span.
    EventQueue eq;
    ChannelParams params;
    params.sink_buffer_depth = 2;
    OpticalChannel channel(eq, sim::coronaClock(), 64, 0, params);
    obs::EventTracer tracer(1 << 12);
    channel.setTracer(&tracer);
    channel.setDeliver([](const Message &) {});
    sendInterleaved(channel, {3, 9, 40}, 6);
    std::size_t sent = 18;
    EXPECT_EQ(channel.queuedMessages(), sent);
    std::size_t checks = 0;
    for (Tick t = 0; !eq.empty(); t += 50) {
        eq.run(t);
        if (t == 2000) {
            sendInterleaved(channel, {9, 61}, 3);
            sent += 6;
        }
        std::size_t departed = 0;
        for (const obs::TraceEvent &ev : tracer.events()) {
            if (ev.kind == obs::TraceKind::ChannelGrant && ev.end <= t)
                ++departed;
        }
        ASSERT_EQ(channel.queuedMessages(), sent - departed)
            << "at tick " << t;
        ++checks;
    }
    EXPECT_EQ(channel.queuedMessages(), 0u);
    EXPECT_GT(checks, 20u);
}

TEST(OpticalChannel, ResetRunMatchesAFreshChannel)
{
    ChannelParams params;
    params.sink_buffer_depth = 1;
    params.max_batch = 3;
    const std::vector<topology::ClusterId> sources = {1, 30, 31, 63};

    EventQueue fresh_eq;
    OpticalChannel fresh(fresh_eq, sim::coronaClock(), 64, 0, params);
    std::vector<Delivery> want;
    recordDeliveries(fresh_eq, fresh, want);
    sendInterleaved(fresh, sources, 10);
    fresh_eq.run();

    // Dirty a second channel with different traffic, stopped mid-run
    // so queues, in-flight messages and credit waiters are all live.
    EventQueue eq;
    OpticalChannel reused(eq, sim::coronaClock(), 64, 0, params);
    std::vector<Delivery> got;
    recordDeliveries(eq, reused, got);
    sendInterleaved(reused, {7, 8, 9, 50, 51}, 9);
    eq.run(4000);
    ASSERT_GT(reused.queuedMessages(), 0u);
    eq.reset();
    reused.reset();
    EXPECT_EQ(reused.queuedMessages(), 0u);
    got.clear();
    sendInterleaved(reused, sources, 10);
    eq.run();

    EXPECT_EQ(got, want);
    EXPECT_EQ(reused.messagesDelivered(), fresh.messagesDelivered());
    EXPECT_EQ(reused.busyTime(), fresh.busyTime());
}

TEST(OpticalXbar, AggregateBandwidthIs20TBps)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    EXPECT_NEAR(xbar.aggregateBandwidth(), 20.48e12, 1e6);
    EXPECT_NEAR(xbar.bisectionBandwidth(), 10.24e12, 1e6);
    EXPECT_EQ(xbar.name(), "XBar");
    EXPECT_EQ(xbar.clusters(), 64u);
    EXPECT_EQ(xbar.hopCount(3, 60), 1u);
}

TEST(OpticalXbar, AllPairsDeliver)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::map<std::pair<unsigned, unsigned>, int> received;
    xbar.setDeliver([&](const Message &msg) {
        ++received[{static_cast<unsigned>(msg.src),
                    static_cast<unsigned>(msg.dst)}];
    });
    int sent = 0;
    for (topology::ClusterId s = 0; s < 64; s += 7) {
        for (topology::ClusterId d = 0; d < 64; d += 5) {
            if (s == d)
                continue;
            xbar.send(makeMsg(s, d));
            ++sent;
        }
    }
    eq.run();
    EXPECT_EQ(xbar.netStats().messages.value(),
              static_cast<std::uint64_t>(sent));
    for (const auto &[pair, count] : received)
        EXPECT_EQ(count, 1);
}

TEST(OpticalXbar, ChannelsAreIndependent)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::vector<Tick> deliveries;
    xbar.setDeliver([&](const Message &) {
        deliveries.push_back(eq.now());
    });
    // Saturate channel 0 from many sources, then send one message on
    // channel 32: the latter must not queue behind the former.
    for (int i = 0; i < 50; ++i)
        xbar.send(makeMsg(static_cast<topology::ClusterId>(i % 60), 0,
                          MsgKind::ReadResp));
    xbar.send(makeMsg(5, 32, MsgKind::ReadReq));
    eq.run();
    ASSERT_EQ(deliveries.size(), 51u);
    // The channel-32 message (unique 16 B read request) lands quickly.
    std::sort(deliveries.begin(), deliveries.end());
    EXPECT_LE(deliveries.front(), xbar.channel(32).arbiter().loopTime() +
                                      kClock + 8 * kClock + 2 * kClock);
}

TEST(OpticalXbar, TokenWaitStatisticsAccumulate)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    xbar.setDeliver([](const Message &) {});
    for (int i = 0; i < 20; ++i)
        xbar.send(makeMsg(static_cast<topology::ClusterId>(i), 42));
    eq.run();
    EXPECT_GT(xbar.meanTokenWait(), 0.0);
    EXPECT_EQ(xbar.channel(42).arbiter().grants(), 20u);
}

TEST(OpticalXbar, SendToBadDestinationPanics)
{
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 8);
    EXPECT_THROW(xbar.send(makeMsg(0, 9)), sim::PanicError);
}

// -------------------------------------------------------------------
// Property sweep: conservation and bandwidth ceiling across loads.
// -------------------------------------------------------------------

class XbarLoad : public ::testing::TestWithParam<int>
{
};

TEST_P(XbarLoad, ConservesMessagesAndRespectsChannelCeiling)
{
    const int senders = GetParam();
    EventQueue eq;
    OpticalCrossbar xbar(eq, sim::coronaClock(), 64);
    std::uint64_t delivered_bytes = 0;
    int delivered = 0;
    xbar.setDeliver([&](const Message &msg) {
        ++delivered;
        delivered_bytes += msg.bytes();
    });
    const int per_sender = 50;
    for (int s = 0; s < senders; ++s) {
        for (int i = 0; i < per_sender; ++i) {
            xbar.send(makeMsg(
                static_cast<topology::ClusterId>(1 + s), 0,
                MsgKind::ReadResp));
        }
    }
    eq.run();
    EXPECT_EQ(delivered, senders * per_sender);
    // Achieved channel bandwidth can never exceed 320 GB/s.
    const double seconds = sim::ticksToSeconds(eq.now());
    const double achieved =
        static_cast<double>(delivered_bytes) / seconds;
    EXPECT_LE(achieved, 320e9 * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Senders, XbarLoad,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 63));

} // namespace
