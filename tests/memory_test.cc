/**
 * @file
 * Unit tests for the memory system: DRAM mats, MSHR file, memory
 * controllers, and the OCM/ECM system arithmetic (Table 4).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "memory/dram.hh"
#include "memory/ecm.hh"
#include "memory/memory_controller.hh"
#include "memory/mshr.hh"
#include "memory/ocm.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;
using memory::DramModule;
using memory::EcmSystem;
using memory::MemoryController;
using memory::MshrFile;
using memory::OcmSystem;
using noc::Message;
using noc::MsgKind;
using sim::EventQueue;
using sim::Tick;

TEST(Dram, MatMappingAndConcurrency)
{
    DramModule dram;
    // Consecutive lines hit different mats (single-mat line reads).
    EXPECT_NE(dram.matOf(0), dram.matOf(64));
    // Accesses to distinct mats at the same tick do not conflict.
    const Tick a = dram.access(0, 1000);
    const Tick b = dram.access(64, 1000);
    EXPECT_EQ(a, 1000u + 4000u);
    EXPECT_EQ(b, 1000u + 4000u);
    EXPECT_EQ(dram.matConflicts(), 0u);
}

TEST(Dram, SameMatAccessesSerialize)
{
    DramModule dram;
    const Tick first = dram.access(0, 0);
    const Tick second = dram.access(0, 100); // Same line -> same mat.
    EXPECT_EQ(first, 4000u);
    EXPECT_EQ(second, 8000u);
    EXPECT_EQ(dram.matConflicts(), 1u);
    EXPECT_EQ(dram.accesses(), 2u);
}

TEST(Dram, EnergyAccounting)
{
    memory::DramParams params;
    params.access_energy_pj = 10.0;
    DramModule dram(params);
    for (int i = 0; i < 1000; ++i)
        dram.access(static_cast<topology::Addr>(i) * 64, 0);
    EXPECT_NEAR(dram.energyJ(), 1000 * 10e-12, 1e-15);
}

TEST(Dram, RejectsBadParams)
{
    memory::DramParams bad;
    bad.mats = 0;
    EXPECT_THROW(DramModule{bad}, std::invalid_argument);
}

TEST(Mshr, AllocateTrackRetire)
{
    MshrFile mshrs(4);
    EXPECT_TRUE(mshrs.allocate(0x1000, 10));
    EXPECT_TRUE(mshrs.outstanding(0x1000));
    EXPECT_FALSE(mshrs.outstanding(0x2000));
    EXPECT_EQ(mshrs.inUse(), 1u);
    int woken = 0;
    mshrs.coalesce(0x1000, [&] { ++woken; });
    mshrs.coalesce(0x1000, [&] { ++woken; });
    EXPECT_EQ(mshrs.coalesced(), 2u);
    mshrs.retire(0x1000, 50); // Runs both wakers in place.
    EXPECT_EQ(woken, 2);
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_DOUBLE_EQ(mshrs.lifetime().mean(), 40.0);
}

TEST(Mshr, CapacityBoundsAllocation)
{
    MshrFile mshrs(2);
    EXPECT_TRUE(mshrs.allocate(0x0, 0));
    EXPECT_TRUE(mshrs.allocate(0x40, 0));
    EXPECT_TRUE(mshrs.full());
    EXPECT_FALSE(mshrs.allocate(0x80, 0));
    mshrs.noteFullStall();
    EXPECT_EQ(mshrs.fullStalls(), 1u);
}

TEST(Mshr, OnFreeFiresAtRetire)
{
    MshrFile mshrs(1);
    int freed = 0;
    mshrs.onFree([&] { ++freed; });
    ASSERT_TRUE(mshrs.allocate(0x0, 0));
    mshrs.retire(0x0, 10);
    EXPECT_EQ(freed, 1);
}

TEST(Mshr, MisusePanics)
{
    MshrFile mshrs(2);
    EXPECT_THROW(mshrs.retire(0x0, 0), sim::PanicError);
    EXPECT_THROW(mshrs.coalesce(0x0, [] {}), sim::PanicError);
    ASSERT_TRUE(mshrs.allocate(0x0, 0));
    EXPECT_THROW(mshrs.allocate(0x0, 0), sim::PanicError);
    EXPECT_THROW(MshrFile(0), std::invalid_argument);
}

TEST(Mshr, JoinCoalescesAllocatesOrReportsFull)
{
    MshrFile mshrs(2);
    std::vector<int> log;
    using Join = MshrFile::Join;
    EXPECT_EQ(mshrs.join(0x40, 5, [&] { log.push_back(1); }),
              Join::Allocated);
    EXPECT_EQ(mshrs.join(0x40, 6, [&] { log.push_back(2); }),
              Join::Coalesced);
    EXPECT_EQ(mshrs.join(0x80, 7, [&] { log.push_back(3); }),
              Join::Allocated);
    EXPECT_EQ(mshrs.join(0xC0, 8, [&] { log.push_back(4); }), Join::Full);
    EXPECT_EQ(mshrs.inUse(), 2u);
    EXPECT_FALSE(mshrs.outstanding(0xC0));
    // Only the secondary miss on 0x40 counts: the two Allocated joins
    // attach primary waiters, which are issued misses, not coalesced.
    EXPECT_EQ(mshrs.coalesced(), 1u);
    mshrs.retire(0x40, 15);
    mshrs.retire(0x80, 17);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(mshrs.lifetime().mean(), 10.0);
}

TEST(Mshr, PrimaryWakesFirstThenCoalescedInFifoOrder)
{
    MshrFile mshrs(4);
    std::vector<int> log;
    ASSERT_EQ(mshrs.join(0x1000, 0, [&] { log.push_back(0); }),
              MshrFile::Join::Allocated);
    ASSERT_TRUE(mshrs.allocate(0x2000, 0)); // Interleaved other line.
    for (int i = 1; i <= 5; ++i) {
        mshrs.coalesce(0x1000, [&log, i] { log.push_back(i); });
        mshrs.coalesce(0x2000, [&log, i] { log.push_back(100 + i); });
    }
    mshrs.retire(0x1000, 10);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    log.clear();
    mshrs.retire(0x2000, 10);
    EXPECT_EQ(log, (std::vector<int>{101, 102, 103, 104, 105}));
}

TEST(Mshr, OnFreeRunsBeforeAnyWaker)
{
    MshrFile mshrs(1);
    std::vector<int> log;
    mshrs.onFree([&] {
        log.push_back(0);
        // The entry is already free when onFree runs.
        EXPECT_EQ(mshrs.inUse(), 0u);
        EXPECT_FALSE(mshrs.full());
    });
    ASSERT_TRUE(mshrs.allocate(0x40, 0));
    mshrs.coalesce(0x40, [&] { log.push_back(1); });
    mshrs.coalesce(0x40, [&] { log.push_back(2); });
    mshrs.retire(0x40, 3);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(mshrs.lifetime().count(), 1u);
}

TEST(Mshr, OnFreeRetryMayReallocateTheRetiringLine)
{
    // A stalled retry woken by onFree re-misses on the very line being
    // retired: it gets a fresh entry, and the old entry's wakers still
    // run afterwards, each exactly once.
    MshrFile mshrs(1);
    std::vector<int> log;
    bool retried = false;
    mshrs.onFree([&] {
        if (retried)
            return;
        retried = true;
        EXPECT_EQ(mshrs.join(0x40, 20, [&] { log.push_back(9); }),
                  MshrFile::Join::Allocated);
    });
    ASSERT_TRUE(mshrs.allocate(0x40, 0));
    mshrs.coalesce(0x40, [&] { log.push_back(1); });
    mshrs.coalesce(0x40, [&] { log.push_back(2); });
    mshrs.retire(0x40, 10);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_TRUE(mshrs.outstanding(0x40));
    mshrs.retire(0x40, 50);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 9}));
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_DOUBLE_EQ(mshrs.lifetime().mean(), 20.0); // (10 + 30) / 2
}

TEST(Mshr, WakerMayCoalesceOntoANewLine)
{
    // Each woken thread misses again at once, on a new line (the
    // first) or on that same new line (the rest), reusing the nodes
    // freed just before they ran.
    MshrFile mshrs(2);
    std::vector<int> log;
    ASSERT_TRUE(mshrs.allocate(0x40, 0));
    for (int i = 0; i < 3; ++i) {
        mshrs.coalesce(0x40, [&mshrs, &log, i] {
            log.push_back(i);
            mshrs.join(0x80, 5, [&log, i] { log.push_back(10 + i); });
        });
    }
    mshrs.retire(0x40, 5);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(mshrs.inUse(), 1u);
    mshrs.retire(0x80, 9);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 10, 11, 12}));
    // Three coalesce() calls plus the two joins that found 0x80 in
    // flight; the join that allocated 0x80 is a primary miss.
    EXPECT_EQ(mshrs.coalesced(), 5u);
}

TEST(Mshr, TableGrowsLazilyAndKeepsItsStorageAcrossReset)
{
    MshrFile mshrs(128);
    EXPECT_EQ(mshrs.tableSlots(), 0u); // Nothing sized at construction.
    ASSERT_TRUE(mshrs.allocate(0x0, 0));
    EXPECT_EQ(mshrs.tableSlots(), 8u);
    for (topology::Addr line = 1; line < 128; ++line)
        ASSERT_TRUE(mshrs.allocate(line * 64, 0));
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.tableSlots(), 256u); // bit_ceil(2 * 128), no more.
    EXPECT_FALSE(mshrs.allocate(128 * 64, 0));
    EXPECT_EQ(mshrs.tableSlots(), 256u);
    mshrs.reset();
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_EQ(mshrs.tableSlots(), 256u);
    for (topology::Addr line = 0; line < 128; ++line)
        EXPECT_FALSE(mshrs.outstanding(line * 64));
    EXPECT_TRUE(mshrs.allocate(0x40, 0));
}

TEST(Mshr, EmptySlotKeyIsRejected)
{
    MshrFile mshrs(2);
    EXPECT_THROW(mshrs.allocate(MshrFile::emptyLine, 0), sim::PanicError);
    EXPECT_THROW(mshrs.join(MshrFile::emptyLine, 0, [] {}),
                 sim::PanicError);
}

/**
 * Random joins, allocations, coalesces, retires and resets against a
 * std::map reference. Most keys share one of two home slots (one at
 * the table's last slot, so probe runs wrap around), which forces long
 * probe runs and retires from the middle of them.
 */
TEST(Mshr, RandomisedModelAgainstStdMap)
{
    constexpr std::size_t capacity = 6; // Table: 8, then 16 slots.
    constexpr std::size_t slots = 16;
    std::vector<topology::Addr> keys;
    for (const std::size_t home : {std::size_t{slots - 1}, std::size_t{3}}) {
        std::size_t found = 0;
        for (topology::Addr line = 0; found < 7; line += 64) {
            if (MshrFile::homeSlot(line, slots) == home) {
                keys.push_back(line);
                ++found;
            }
        }
    }
    for (topology::Addr line = 1; line <= 6; ++line)
        keys.push_back(line * 0x1000 + 0x40);

    struct Model
    {
        Tick allocated;
        std::uint64_t seq;
        std::vector<int> waiters;
    };
    std::map<topology::Addr, Model> model;
    MshrFile mshrs(capacity);
    std::vector<int> woken;
    std::mt19937_64 rng(20240515);
    std::uint64_t seq = 0, coalesced = 0, retires = 0;
    std::uint64_t middle_retires = 0, full_rejects = 0;
    double lifetime_total = 0;
    int next_waiter = 0;
    Tick now = 0;

    auto pick = [&](auto &range) {
        auto it = range.begin();
        std::advance(it, rng() % range.size());
        return it;
    };
    auto waker = [&woken](int id) {
        return [&woken, id] { woken.push_back(id); };
    };

    for (int step = 0; step < 20'000; ++step) {
        now += rng() % 7;
        const unsigned op = rng() % 100;
        if (op < 45) {
            const topology::Addr line = *pick(keys);
            const int id = next_waiter++;
            const auto outcome = mshrs.join(line, now, waker(id));
            auto it = model.find(line);
            if (it != model.end()) {
                ASSERT_EQ(outcome, MshrFile::Join::Coalesced);
                it->second.waiters.push_back(id);
                ++coalesced;
            } else if (model.size() == capacity) {
                ASSERT_EQ(outcome, MshrFile::Join::Full);
                ++full_rejects;
            } else {
                ASSERT_EQ(outcome, MshrFile::Join::Allocated);
                model[line] = Model{now, seq++, {id}};
            }
        } else if (op < 55) {
            const topology::Addr line = *pick(keys);
            if (model.contains(line)) {
                EXPECT_THROW(mshrs.allocate(line, now), sim::PanicError);
            } else {
                const bool room = model.size() < capacity;
                ASSERT_EQ(mshrs.allocate(line, now), room);
                if (room)
                    model[line] = Model{now, seq++, {}};
            }
        } else if (op < 65 && !model.empty()) {
            auto it = pick(model);
            const int id = next_waiter++;
            mshrs.coalesce(it->first, waker(id));
            it->second.waiters.push_back(id);
            ++coalesced;
        } else if (op < 97 && !model.empty()) {
            auto it = pick(model);
            // A retire from the middle of a probe run: an older and a
            // younger outstanding line share its home slot.
            const std::size_t home = MshrFile::homeSlot(it->first, slots);
            bool older = false, younger = false;
            for (const auto &[line, entry] : model) {
                if (line == it->first ||
                    MshrFile::homeSlot(line, slots) != home)
                    continue;
                older = older || entry.seq < it->second.seq;
                younger = younger || entry.seq > it->second.seq;
            }
            if (older && younger)
                ++middle_retires;
            woken.clear();
            mshrs.retire(it->first, now);
            ASSERT_EQ(woken, it->second.waiters);
            lifetime_total += static_cast<double>(now - it->second.allocated);
            ++retires;
            model.erase(it);
        } else if (op == 99) {
            mshrs.reset();
            model.clear();
            coalesced = retires = 0;
            full_rejects = 0;
            lifetime_total = 0;
        }

        ASSERT_EQ(mshrs.inUse(), model.size());
        for (const topology::Addr line : keys)
            ASSERT_EQ(mshrs.outstanding(line), model.contains(line));
        ASSERT_EQ(mshrs.coalesced(), coalesced);
        ASSERT_EQ(mshrs.lifetime().count(), retires);
        ASSERT_NEAR(mshrs.lifetime().total(), lifetime_total, 1e-6);
        ASSERT_LE(mshrs.tableSlots(), slots);
    }
    EXPECT_GT(middle_retires, 100u);
    EXPECT_GT(full_rejects, 0u);
    EXPECT_EQ(mshrs.tableSlots(), slots);
}

TEST(OcmSystem, Table4Numbers)
{
    const OcmSystem ocm;
    EXPECT_DOUBLE_EQ(ocm.perControllerBandwidth(), 160e9);
    EXPECT_NEAR(ocm.aggregateBandwidth(), 10.24e12, 1e3);
    EXPECT_EQ(ocm.totalFibers(), 256u);
    // Section 3.3: ~6.4 W at 0.078 mW/Gb/s.
    EXPECT_NEAR(ocm.interconnectPowerW(), 6.4, 0.2);
    const auto params = ocm.controllerParams();
    EXPECT_EQ(params.access_latency, 20000u);
    EXPECT_EQ(params.name, "OCM");
}

TEST(OcmSystem, ChainDelayGrowsGently)
{
    const OcmSystem ocm;
    EXPECT_EQ(ocm.chainDelay(0), 0u);
    EXPECT_LT(ocm.chainDelay(3), 1000u); // Sub-ns even at chain end.
    EXPECT_THROW(ocm.chainDelay(99), std::out_of_range);
}

TEST(EcmSystem, Table4Numbers)
{
    const EcmSystem ecm;
    EXPECT_DOUBLE_EQ(ecm.perControllerBandwidth(), 15e9);
    EXPECT_NEAR(ecm.aggregateBandwidth(), 0.96e12, 1e3);
    // ECM at its own 0.96 TB/s burns ~15 W of link power...
    EXPECT_NEAR(ecm.interconnectPowerW(), 15.36, 0.1);
    // ...and matching the OCM's 10.24 TB/s would take >160 W
    // (Section 3.3's infeasibility argument).
    EXPECT_GT(ecm.powerToMatchW(10.24e12), 160.0);
    EXPECT_EQ(ecm.controllerParams().name, "ECM");
}

class McFixture : public ::testing::Test
{
  protected:
    Message
    request(MsgKind kind, topology::ClusterId src, std::uint64_t tag)
    {
        Message msg;
        msg.src = src;
        msg.dst = 7;
        msg.kind = kind;
        msg.tag = tag;
        return msg;
    }

    EventQueue eq_;
};

TEST_F(McFixture, ReadLatencyIsAccessPlusSerialization)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::vector<Tick> completions;
    Message resp_seen;
    mc.access(request(MsgKind::ReadReq, 3, 0xAA), 0x1000,
              [&](const Message &resp) {
        completions.push_back(eq_.now());
        resp_seen = resp;
    });
    eq_.run();
    ASSERT_EQ(completions.size(), 1u);
    // 20 ns access dominates (serialization 64 B / 160 GB/s = 400 ps).
    EXPECT_GE(completions[0], 20000u);
    EXPECT_LE(completions[0], 21000u);
    EXPECT_EQ(resp_seen.kind, MsgKind::ReadResp);
    EXPECT_EQ(resp_seen.src, 7u);
    EXPECT_EQ(resp_seen.dst, 3u);
    EXPECT_EQ(resp_seen.tag, 0xAAu);
}

TEST_F(McFixture, WriteProducesAck)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    MsgKind kind = MsgKind::ReadReq;
    mc.access(request(MsgKind::WriteReq, 4, 1), 0x2000,
              [&](const Message &resp) { kind = resp.kind; });
    eq_.run();
    EXPECT_EQ(kind, MsgKind::WriteAck);
}

TEST_F(McFixture, ThroughputBoundedByLinkRate)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    int done = 0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64,
                  [&](const Message &) { ++done; });
    }
    eq_.run();
    EXPECT_EQ(done, n);
    EXPECT_EQ(mc.accesses(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(mc.bytesMoved(), static_cast<std::uint64_t>(n) * 64);
    // ECM: 64 B / 15 GB/s = ~4.27 ns serialization per line; 100 lines
    // take >= 426 ns regardless of the 20 ns access pipeline.
    EXPECT_GE(eq_.now(), 426000u);
}

TEST_F(McFixture, QueueDepthObserved)
{
    MemoryController mc(eq_, 7, memory::ecmParams());
    for (int i = 0; i < 10; ++i) {
        mc.access(request(MsgKind::ReadReq, 1,
                          static_cast<std::uint64_t>(i)),
                  static_cast<topology::Addr>(i) * 64,
                  [](const Message &) {});
    }
    eq_.run();
    EXPECT_GE(mc.peakQueueDepth(), 8u);
    EXPECT_GT(mc.serviceTime().mean(), 20000.0);
}

TEST_F(McFixture, LinkIsFifoWhileMatConflictsReorderCompletions)
{
    // Four requests at tick 0 on OCM (400-tick serialization, 20 ns
    // array, 4 ns mat occupancy, 200-tick link delay). The link takes
    // them in arrival order, 400 ticks apart; A, B and D share mat 0,
    // so B and D wait for it while C (mat 1) overtakes B.
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::vector<std::pair<std::uint64_t, Tick>> done;
    const topology::Addr addrs[] = {0, 0, 64, 0};
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
        mc.access(request(MsgKind::ReadReq, 1, tag), addrs[tag],
                  [&](const Message &resp) {
            done.emplace_back(resp.tag, eq_.now());
        });
    }
    EXPECT_EQ(mc.queueDepth(), 3u);
    eq_.run();
    const std::vector<std::pair<std::uint64_t, Tick>> expected = {
        {0, 20200}, // Start 0; mat 0 free; array done 20000.
        {2, 21000}, // Start 800 on mat 1.
        {1, 24200}, // Start 400; mat 0 busy until 4000.
        {3, 28200}, // Start 1200; mat 0 busy until 8000.
    };
    EXPECT_EQ(done, expected);
    EXPECT_EQ(mc.peakQueueDepth(), 3u);
    EXPECT_EQ(mc.queueDepth(), 0u);
    EXPECT_EQ(mc.dram().matConflicts(), 2u);
}

TEST_F(McFixture, CompletionMayIssueANewAccess)
{
    // A completion that issues the next access reuses the slot it just
    // freed; both requests keep their own response and callback.
    MemoryController mc(eq_, 7, memory::ocmParams());
    std::vector<std::uint64_t> tags;
    mc.access(request(MsgKind::ReadReq, 1, 10), 0x0,
              [&](const Message &first) {
        tags.push_back(first.tag);
        mc.access(request(MsgKind::WriteReq, 2, 11), 0x40,
                  [&](const Message &second) {
            tags.push_back(second.tag);
            EXPECT_EQ(second.kind, MsgKind::WriteAck);
            EXPECT_EQ(second.dst, 2u);
        });
        tags.push_back(first.tag);
    });
    eq_.run();
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{10, 10, 11}));
    EXPECT_EQ(mc.accesses(), 2u);
}

TEST_F(McFixture, ResetRunMatchesAFreshController)
{
    auto drive = [this](MemoryController &mc) {
        std::vector<std::pair<std::uint64_t, Tick>> done;
        for (std::uint64_t tag = 0; tag < 40; ++tag) {
            mc.access(request(MsgKind::ReadReq, 1, tag), (tag % 5) * 320,
                      [&done, this](const Message &resp) {
                done.emplace_back(resp.tag, eq_.now());
            });
        }
        eq_.run();
        return done;
    };
    MemoryController mc(eq_, 7, memory::ecmParams());
    const auto first = drive(mc);
    // Dirty the controller mid-run, then reset it with the queue.
    for (std::uint64_t tag = 0; tag < 8; ++tag)
        mc.access(request(MsgKind::ReadReq, 1, tag), 0,
                  [](const Message &) {});
    eq_.run(eq_.now() + 5000);
    eq_.reset();
    mc.reset();
    EXPECT_EQ(drive(mc), first);
    EXPECT_EQ(mc.accesses(), 40u);
}

TEST_F(McFixture, NonMemoryRequestPanics)
{
    MemoryController mc(eq_, 7, memory::ocmParams());
    EXPECT_THROW(
        mc.access(request(MsgKind::ReadResp, 1, 0), 0,
                  [](const Message &) {}),
        sim::PanicError);
}

TEST(MemoryParams, OcmVsEcmContrast)
{
    // Table 4's core contrast: 10x+ bandwidth at equal latency.
    const auto ocm = memory::ocmParams();
    const auto ecm = memory::ecmParams();
    EXPECT_NEAR(ocm.bytes_per_second / ecm.bytes_per_second, 10.67, 0.1);
    EXPECT_EQ(ocm.access_latency, ecm.access_latency);
}

} // namespace
