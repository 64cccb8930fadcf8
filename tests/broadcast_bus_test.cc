/**
 * @file
 * Unit tests for the optical broadcast bus (Section 3.2.2).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "xbar/broadcast_bus.hh"

namespace {

using namespace corona;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;
using xbar::BroadcastBus;

Message
invalidate(topology::ClusterId src, std::uint64_t tag = 0)
{
    Message msg;
    msg.src = src;
    msg.dst = src; // Broadcast: dst is not meaningful.
    msg.kind = MsgKind::Invalidate;
    msg.tag = tag;
    return msg;
}

TEST(BroadcastBus, OneSendReachesAllClusters)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    std::set<topology::ClusterId> receivers;
    bus.setDeliver([&](const Message &, topology::ClusterId cluster) {
        receivers.insert(cluster);
    });
    bus.broadcast(invalidate(12));
    eq.run();
    EXPECT_EQ(receivers.size(), 64u);
    EXPECT_EQ(bus.broadcastsSent(), 1u);
}

TEST(BroadcastBus, DeliveryFollowsCoilOrder)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    std::vector<topology::ClusterId> order;
    bus.setDeliver([&](const Message &, topology::ClusterId cluster) {
        order.push_back(cluster);
    });
    bus.broadcast(invalidate(0));
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    // Second-pass readers are visited in coil position order.
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(BroadcastBus, SerializedBySingleToken)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    int delivered = 0;
    bus.setDeliver([&](const Message &, topology::ClusterId) {
        ++delivered;
    });
    bus.broadcast(invalidate(3, 1));
    bus.broadcast(invalidate(9, 2));
    bus.broadcast(invalidate(60, 3));
    eq.run();
    EXPECT_EQ(delivered, 3 * 64);
    EXPECT_EQ(bus.broadcastsSent(), 3u);
}

TEST(BroadcastBus, InvalidateSerializesInOneClock)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    // A 16 B invalidate on the 16 B/clock bus takes one clock.
    EXPECT_EQ(bus.serializationTime(16), 200u);
    EXPECT_EQ(bus.serializationTime(17), 400u);
}

TEST(BroadcastBus, LatencyBoundedByTwoCoilPasses)
{
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    Tick last = 0;
    bus.setDeliver([&](const Message &, topology::ClusterId) {
        last = eq.now();
    });
    bus.broadcast(invalidate(1));
    eq.run();
    // Token (<= 1 pass) + serialization + remaining first pass +
    // full second pass: comfortably under 4 coil passes.
    EXPECT_LE(last, 4 * 8 * 200u);
}

TEST(BroadcastBus, DeliveryMayStartTheNextBroadcast)
{
    // Clusters 0 and 1 broadcast back to back, so the second message
    // reaches its first clusters while the first is still being
    // delivered. When message n reaches cluster 0, cluster n + 2 sends
    // message n + 2 (up to 4) from inside the delivery callback. Every
    // delivery must carry its own message, and a reset bus must replay
    // the same (tick, tag, src, cluster) list.
    EventQueue eq;
    BroadcastBus bus(eq, sim::coronaClock(), 64);
    struct Delivery
    {
        Tick tick;
        std::uint64_t tag;
        topology::ClusterId src, cluster;
        bool operator==(const Delivery &) const = default;
    };
    std::vector<Delivery> log;
    bus.setDeliver([&](const Message &msg, topology::ClusterId cluster) {
        log.push_back({eq.now(), msg.tag, msg.src, cluster});
        if (msg.tag < 3 && cluster == 0)
            bus.broadcast(invalidate(msg.tag + 2, msg.tag + 2));
    });
    bus.broadcast(invalidate(0, 0));
    bus.broadcast(invalidate(1, 1));
    eq.run();
    ASSERT_EQ(log.size(), 5u * 64u);
    std::vector<std::vector<topology::ClusterId>> reached(5);
    bool overlapped = false;
    for (std::size_t i = 0; i < log.size(); ++i) {
        ASSERT_LT(log[i].tag, 5u);
        EXPECT_EQ(log[i].src, log[i].tag);
        reached[log[i].tag].push_back(log[i].cluster);
        if (i > 0 && log[i].tag < log[i - 1].tag)
            overlapped = true;
    }
    for (const auto &clusters : reached) {
        ASSERT_EQ(clusters.size(), 64u);
        for (std::size_t k = 0; k < 64; ++k)
            EXPECT_EQ(clusters[k], k); // Coil order per message.
    }
    EXPECT_TRUE(overlapped);

    const auto first = log;
    log.clear();
    eq.reset();
    bus.reset();
    bus.broadcast(invalidate(0, 0));
    bus.broadcast(invalidate(1, 1));
    eq.run();
    EXPECT_EQ(log, first);
    EXPECT_EQ(bus.broadcastsSent(), 5u);
}

TEST(BroadcastBus, RejectsTinyRing)
{
    EventQueue eq;
    EXPECT_THROW(BroadcastBus(eq, sim::coronaClock(), 1),
                 std::invalid_argument);
}

} // namespace
