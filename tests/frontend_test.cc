/**
 * @file
 * Tests for the coherent traffic-injection front end: hierarchy
 * filtering semantics, the pass-through parity gate (a coherent config
 * with no cache level must reproduce the miss-stream front end bit for
 * bit, in metrics and in campaign sink/checkpoint bytes, pooled and
 * fresh, at any worker count), pooled-vs-fresh parity with real caches
 * and sharing traffic, broadcast-vs-unicast invalidation transport,
 * invalidations racing evictions, and randomised timed references
 * checked against the protocol at every drain.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "cache/hierarchy.hh"
#include "corona/context.hh"
#include "corona/frontend.hh"
#include "corona/simulation.hh"
#include "sim/rng.hh"
#include "workload/sharing.hh"
#include "workload/synthetic.hh"

#include "metrics_eq.hh"

namespace {

using namespace corona;

core::SimParams
tinyParams(std::uint64_t requests = 400, std::uint64_t seed = 11)
{
    core::SimParams params;
    params.requests = requests;
    params.seed = seed;
    return params;
}

/** The coherent config whose event stream must equal miss-stream: no
 * cache levels (so no front end is built), and the base config's
 * label so campaign axes (CSV config columns, checkpoint fingerprints)
 * match byte for byte. */
core::SystemConfig
passThroughConfig(core::NetworkKind network, core::MemoryKind memory)
{
    core::SystemConfig config = core::makeConfig(network, memory);
    config.label = config.name();
    config.frontend = core::FrontendKind::Coherent;
    config.hierarchy.l1_kib = 0;
    config.hierarchy.l2_kib = 0;
    return config;
}

// ---------------------------------------------------------------------
// ClusterHierarchy semantics.

TEST(Hierarchy, RejectsAShapeWithNoCacheLevel)
{
    // A cache-less coherent config builds no front end (and so no
    // hierarchy); asking for one anyway is an error, not a hierarchy
    // that dereferences a missing level.
    cache::HierarchyConfig hc;
    hc.l1_kib = 0;
    hc.l2_kib = 0;
    EXPECT_THROW(cache::ClusterHierarchy{hc}, std::invalid_argument);
}

TEST(Hierarchy, SecondAccessHitsBothLevels)
{
    cache::ClusterHierarchy hier; // Default 32K/256K.
    EXPECT_FALSE(hier.access(0x40, false).hit);
    EXPECT_TRUE(hier.access(0x40, false).hit);
    EXPECT_TRUE(hier.contains(0x40));
    ASSERT_NE(hier.l1(), nullptr);
    ASSERT_NE(hier.l2(), nullptr);
    EXPECT_EQ(hier.l1()->hits(), 1u);
}

TEST(Hierarchy, L2EvictionBackInvalidatesL1)
{
    // 1 KiB direct-mapped at both levels: 16 sets of 64 B lines, so
    // addresses 1024 apart collide.
    cache::HierarchyConfig hc;
    hc.l1_kib = 1;
    hc.l1_assoc = 1;
    hc.l2_kib = 1;
    hc.l2_assoc = 1;
    cache::ClusterHierarchy hier(hc);

    hier.access(0, /*write=*/true);
    ASSERT_TRUE(hier.contains(0));
    const cache::HierarchyResult r = hier.access(1024, false);
    EXPECT_FALSE(r.hit);
    // Line 0 left the L2, so it must leave the whole hierarchy...
    ASSERT_EQ(r.evictions.size(), 1u);
    EXPECT_EQ(r.evictions[0], 0u);
    EXPECT_FALSE(hier.contains(0));
    // ...and its dirty copy (the store lived in the L1) writes back.
    ASSERT_EQ(r.writebacks.size(), 1u);
    EXPECT_EQ(r.writebacks[0], 0u);
}

TEST(Hierarchy, WriteThroughStoresNeverDirtyLines)
{
    cache::HierarchyConfig hc;
    hc.l1_kib = 1;
    hc.l1_assoc = 1;
    hc.l2_kib = 1;
    hc.l2_assoc = 1;
    hc.write_through = true;
    cache::ClusterHierarchy hier(hc);

    EXPECT_FALSE(hier.access(0, true).hit); // Miss fill: no sideband.
    const cache::HierarchyResult hit = hier.access(0, true);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.write_through); // Store hit: the word travels.
    // A colliding access evicts a *clean* line: no writeback.
    const cache::HierarchyResult r = hier.access(1024, false);
    ASSERT_EQ(r.evictions.size(), 1u);
    EXPECT_TRUE(r.writebacks.empty());
}

TEST(Hierarchy, InvalidateReportsResidencyAndDirt)
{
    cache::ClusterHierarchy hier;
    hier.access(0x80, true);
    const cache::InvalidateResult hit = hier.invalidateLine(0x80);
    EXPECT_TRUE(hit.present);
    EXPECT_TRUE(hit.dirty);
    EXPECT_FALSE(hier.contains(0x80));
    const cache::InvalidateResult miss = hier.invalidateLine(0x80);
    EXPECT_FALSE(miss.present);
    EXPECT_FALSE(miss.dirty);
}

// ---------------------------------------------------------------------
// The pass-through parity gate.

TEST(FrontEndParity, PassThroughMetricsMatchMissStream)
{
    const auto base =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    auto w1 = workload::makeUniform();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::makeUniform();
    const auto coherent = core::runExperiment(
        passThroughConfig(core::NetworkKind::XBar, core::MemoryKind::OCM),
        *w2, tinyParams());
    EXPECT_METRICS_EQ(miss_stream, coherent);
    EXPECT_EQ(miss_stream.events_executed, coherent.events_executed);
}

TEST(FrontEndParity, PassThroughMetricsMatchOnAMeshSystemToo)
{
    const auto base = core::makeConfig(core::NetworkKind::LMesh,
                                       core::MemoryKind::ECM);
    auto w1 = workload::makeUniform();
    const auto miss_stream = core::runExperiment(base, *w1, tinyParams());

    auto w2 = workload::makeUniform();
    const auto coherent = core::runExperiment(
        passThroughConfig(core::NetworkKind::LMesh,
                          core::MemoryKind::ECM),
        *w2, tinyParams());
    EXPECT_METRICS_EQ(miss_stream, coherent);
    EXPECT_EQ(miss_stream.events_executed, coherent.events_executed);
}

campaign::CampaignSpec
gridSpec(bool coherent_passthrough)
{
    campaign::CampaignSpec spec;
    spec.name = "frontend-parity";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"Migratory", false, workload::makeMigratory},
    };
    if (coherent_passthrough) {
        spec.configs = {
            passThroughConfig(core::NetworkKind::XBar,
                              core::MemoryKind::OCM),
            passThroughConfig(core::NetworkKind::LMesh,
                              core::MemoryKind::ECM),
        };
    } else {
        spec.configs = {
            core::makeConfig(core::NetworkKind::XBar,
                             core::MemoryKind::OCM),
            core::makeConfig(core::NetworkKind::LMesh,
                             core::MemoryKind::ECM),
        };
    }
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

struct SinkBytes
{
    std::string csv;
    std::string jsonl;
};

SinkBytes
runGrid(const campaign::CampaignSpec &spec, bool reuse_systems,
        std::size_t threads)
{
    std::ostringstream csv, jsonl;
    campaign::CsvSink csv_sink(csv);
    campaign::JsonLinesSink jsonl_sink(jsonl);
    campaign::RunnerOptions options;
    options.threads = threads;
    options.reuse_systems = reuse_systems;
    campaign::CampaignRunner runner(options);
    runner.addSink(csv_sink);
    runner.addSink(jsonl_sink);
    runner.run(spec);
    return {csv.str(), jsonl.str()};
}

TEST(FrontEndParity, SinkBytesMatchMissStreamPooledAndFreshAt1And4Workers)
{
    const SinkBytes baseline = runGrid(gridSpec(false), false, 1);
    ASSERT_FALSE(baseline.csv.empty());
    for (const bool pooled : {false, true}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            const SinkBytes coherent =
                runGrid(gridSpec(true), pooled, threads);
            EXPECT_EQ(baseline.csv, coherent.csv)
                << "pooled=" << pooled << " threads=" << threads;
            EXPECT_EQ(baseline.jsonl, coherent.jsonl)
                << "pooled=" << pooled << " threads=" << threads;
        }
    }
}

std::string
runGridToCheckpoint(const campaign::CampaignSpec &spec, bool reuse_systems,
                    const std::string &path)
{
    std::remove(path.c_str());
    {
        campaign::CheckpointFile checkpoint(path, spec);
        campaign::RunnerOptions options;
        options.threads = 2;
        options.reuse_systems = reuse_systems;
        campaign::CampaignRunner runner(options);
        runner.addSink(checkpoint.sink());
        runner.run(spec);
        checkpoint.checkWritten();
    }
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
}

TEST(FrontEndParity, CheckpointBytesMatchMissStream)
{
    const std::string dir = ::testing::TempDir();
    const std::string miss_stream = runGridToCheckpoint(
        gridSpec(false), false, dir + "/fe_miss.ckpt");
    const std::string coherent = runGridToCheckpoint(
        gridSpec(true), true, dir + "/fe_coherent.ckpt");
    EXPECT_FALSE(miss_stream.empty());
    EXPECT_EQ(miss_stream, coherent);
}

// ---------------------------------------------------------------------
// Coherent mode with real caches: pooled leases must behave freshly.

campaign::CampaignSpec
coherentSpec()
{
    core::SystemConfig config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    campaign::CampaignSpec spec;
    spec.name = "coherent-pool-parity";
    spec.workloads = {
        {"Migratory", false, workload::makeMigratory},
        {"False Sharing", false, workload::makeFalseSharing},
    };
    spec.configs = {config};
    spec.seeds = {0, 1};
    spec.base.requests = 250;
    return spec;
}

TEST(CoherentFrontEnd, PooledRunsAreByteIdenticalToFreshOnes)
{
    const SinkBytes fresh = runGrid(coherentSpec(), false, 1);
    const SinkBytes pooled = runGrid(coherentSpec(), true, 1);
    const SinkBytes parallel = runGrid(coherentSpec(), true, 4);
    ASSERT_FALSE(fresh.csv.empty());
    EXPECT_EQ(fresh.csv, pooled.csv);
    EXPECT_EQ(fresh.jsonl, pooled.jsonl);
    EXPECT_EQ(fresh.csv, parallel.csv);
    EXPECT_EQ(fresh.jsonl, parallel.jsonl);
}

TEST(CoherentFrontEnd, ConfigWithNoCacheLevelBuildsNone)
{
    core::SimContext ctx(
        passThroughConfig(core::NetworkKind::XBar, core::MemoryKind::OCM));
    EXPECT_EQ(ctx.system().frontEnd(), nullptr);
    // With no directory built, its 64-cluster limit does not apply.
    core::SystemConfig wide =
        passThroughConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    wide.clusters = 256;
    core::SimContext wide_ctx(wide);
    EXPECT_EQ(wide_ctx.system().frontEnd(), nullptr);
}

// ---------------------------------------------------------------------
// Invalidation transport.

core::SystemConfig
coherentConfig(coherence::InvalPolicy policy)
{
    core::SystemConfig config =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    config.frontend = core::FrontendKind::Coherent;
    config.inval_policy = policy;
    return config;
}

TEST(CoherentFrontEnd, BroadcastAndUnicastTransportsDiffer)
{
    core::SimContext bcast(coherentConfig(coherence::InvalPolicy::Broadcast));
    auto w1 = workload::makeFalseSharing();
    core::runExperiment(bcast, *w1, tinyParams(2000, 3));
    const core::CoherentFrontEnd *bus_fe = bcast.system().frontEnd();
    ASSERT_NE(bus_fe, nullptr);

    core::SimContext uni(coherentConfig(coherence::InvalPolicy::Unicast));
    auto w2 = workload::makeFalseSharing();
    core::runExperiment(uni, *w2, tinyParams(2000, 3));
    const core::CoherentFrontEnd *uni_fe = uni.system().frontEnd();
    ASSERT_NE(uni_fe, nullptr);

    // False Sharing hammers a hot shared pool, so invalidations are
    // plentiful; the transports must route them differently.
    EXPECT_GT(bus_fe->broadcasts(), 0u);
    ASSERT_NE(bus_fe->broadcastBus(), nullptr);
    EXPECT_GT(bus_fe->broadcastBus()->broadcastsSent(), 0u);
    EXPECT_EQ(uni_fe->broadcasts(), 0u);
    EXPECT_GT(uni_fe->sidebandMessages(), bus_fe->sidebandMessages());
}

// ---------------------------------------------------------------------
// Invalidations racing evictions.

TEST(CoherentFrontEnd, LateInvalidateAfterEvictionIsCountedNotFatal)
{
    core::SimContext ctx(coherentConfig(coherence::InvalPolicy::Unicast));
    core::CoherentFrontEnd *fe = ctx.system().frontEnd();
    ASSERT_NE(fe, nullptr);

    // Make line 0x40 resident at cluster 2 (the hierarchy and protocol
    // update at admission), then drain the fill traffic.
    const auto outcome = fe->access(2, 0x40, 1, /*write=*/false, [] {});
    EXPECT_EQ(outcome, core::CoherentFrontEnd::Outcome::Sent);
    ctx.eq().run();
    EXPECT_TRUE(fe->hierarchy(2).contains(0x40));

    // A unicast invalidate finds the copy...
    noc::Message inval;
    inval.dst = 2;
    inval.kind = noc::MsgKind::Invalidate;
    inval.tag =
        (static_cast<std::uint64_t>(coherence::CoherenceMsg::Inval) << 60) |
        0x40;
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalHits(), 1u);
    EXPECT_EQ(fe->invalMisses(), 0u);
    EXPECT_FALSE(fe->hierarchy(2).contains(0x40));

    // ...and one that lost the race to an eviction (the line is gone
    // by delivery time) is counted, not fatal.
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalHits(), 1u);
    EXPECT_EQ(fe->invalMisses(), 1u);

    // A broadcast snooping a non-sharer is the common case: silent
    // (mesh systems fan InvalBcast out as per-cluster sidebands).
    inval.tag = (static_cast<std::uint64_t>(
                     coherence::CoherenceMsg::InvalBcast)
                 << 60) |
                0x40;
    fe->deliverSideband(inval);
    EXPECT_EQ(fe->invalMisses(), 1u);
}

// ---------------------------------------------------------------------
// Randomised timed references: seeded reads and writes from many
// clusters go through CoherentFrontEnd::access while the event queue
// drains only in part between batches, so invalidations, forwards and
// writebacks are in flight when later references arrive. Every full
// drain checks the protocol's invariants and that no hierarchy keeps a
// line its peer holds Invalid (a missed invalidation).

struct TimedCase
{
    core::NetworkKind network;
    coherence::InvalPolicy policy;
    bool write_through;
    std::uint32_t l1_kib;
    std::uint32_t l2_kib;
};

std::string
timedCaseName(const ::testing::TestParamInfo<TimedCase> &info)
{
    const TimedCase &c = info.param;
    return core::to_string(c.network) + "_" +
           coherence::to_string(c.policy) +
           (c.write_through ? "_writethrough" : "_writeback") + "_l1_" +
           std::to_string(c.l1_kib) + "_l2_" + std::to_string(c.l2_kib);
}

class TimedFrontEndFuzz : public ::testing::TestWithParam<TimedCase>
{
};

TEST_P(TimedFrontEndFuzz, ProtocolAndResidencyAgreeAtEveryDrain)
{
    const TimedCase &param = GetParam();
    core::SystemConfig config = core::makeConfig(
        param.network, param.network == core::NetworkKind::XBar
                           ? core::MemoryKind::OCM
                           : core::MemoryKind::ECM);
    config.frontend = core::FrontendKind::Coherent;
    config.inval_policy = param.policy;
    config.hierarchy.write_through = param.write_through;
    // Tiny caches, so capacity evictions race the invalidations.
    config.hierarchy.l1_kib = param.l1_kib;
    config.hierarchy.l1_assoc = 2;
    config.hierarchy.l2_kib = param.l2_kib;
    config.hierarchy.l2_assoc = 4;
    core::SimContext ctx(config);
    core::CoherentFrontEnd *fe = ctx.system().frontEnd();
    ASSERT_NE(fe, nullptr);

    // Sixteen active clusters, each with a private pool, share one hot
    // pool. Every home is an active cluster, so homes often hold
    // copies of their own lines.
    constexpr std::size_t kActive = 16;
    constexpr std::size_t kPrivate = 24;
    constexpr std::size_t kShared = 16;
    const auto privateLine = [](std::size_t c, std::size_t k) {
        return static_cast<topology::Addr>(((c + 1) << 20) + k * 64);
    };
    const auto sharedLine = [](std::size_t k) {
        return static_cast<topology::Addr>((std::uint64_t{1} << 32) +
                                           k * 64);
    };
    const auto homeOf = [](topology::Addr line) {
        return static_cast<topology::ClusterId>((line / 64 * 7) %
                                                kActive);
    };

    std::uint64_t admitted = 0;
    std::uint64_t fills = 0;
    const auto checkQuiescent = [&](int batch) {
        ctx.eq().run();
        ASSERT_EQ(fills, admitted) << "batch " << batch;
        const coherence::CoherentSystem &coh = fe->coherence();
        coh.checkInvariants();
        std::size_t missed = 0;
        for (std::size_t c = 0; c < kActive; ++c) {
            const cache::ClusterHierarchy &hier = fe->hierarchy(c);
            const auto check = [&](topology::Addr line) {
                if (hier.contains(line) &&
                    coh.peer(c).state(line) ==
                        coherence::MoesiState::Invalid)
                    ++missed;
            };
            for (std::size_t k = 0; k < kPrivate; ++k)
                check(privateLine(c, k));
            for (std::size_t k = 0; k < kShared; ++k)
                check(sharedLine(k));
        }
        ASSERT_EQ(missed, 0u)
            << "resident lines the protocol holds Invalid, batch "
            << batch;
    };

    sim::Rng rng(0xC0FFEE);
    for (int batch = 1; batch <= 48; ++batch) {
        for (int i = 0; i < 48; ++i) {
            const std::size_t c = rng.below(kActive);
            const topology::Addr line =
                rng.chance(0.5) ? sharedLine(rng.below(kShared))
                                : privateLine(c, rng.below(kPrivate));
            const bool write = rng.chance(0.4);
            const auto outcome =
                fe->access(static_cast<topology::ClusterId>(c), line,
                           homeOf(line), write, [&fills] { ++fills; });
            if (outcome != core::CoherentFrontEnd::Outcome::MshrFull)
                ++admitted;
        }
        // Up to about 20 clock periods: messages stay in flight.
        ctx.eq().run(ctx.eq().now() + rng.below(4000));
        if (batch % 8 == 0) {
            checkQuiescent(batch);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(fe->coherence().totalMessages(), 0u);
    EXPECT_GT(fe->invalHits(), 0u);
}

std::vector<TimedCase>
timedCases()
{
    std::vector<TimedCase> cases;
    for (const auto network :
         {core::NetworkKind::XBar, core::NetworkKind::HMesh}) {
        for (const auto policy : {coherence::InvalPolicy::Unicast,
                                  coherence::InvalPolicy::Broadcast}) {
            for (const bool write_through : {false, true}) {
                // L1 only, L2 only, both levels.
                for (const auto &[l1, l2] :
                     {std::pair{1u, 0u}, std::pair{0u, 2u},
                      std::pair{1u, 2u}}) {
                    cases.push_back(
                        {network, policy, write_through, l1, l2});
                }
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, TimedFrontEndFuzz,
                         ::testing::ValuesIn(timedCases()),
                         timedCaseName);

} // namespace
