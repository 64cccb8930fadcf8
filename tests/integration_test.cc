/**
 * @file
 * End-to-end integration tests: full NetworkSimulation runs across the
 * five paper configurations, asserting the qualitative shape of the
 * paper's results (Section 5) at reduced request counts.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "corona/simulation.hh"
#include "trace/replayer.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

#include "metrics_eq.hh"

namespace {

using namespace corona;
using core::MemoryKind;
using core::NetworkKind;
using core::RunMetrics;
using core::SimParams;
using core::SystemConfig;

SimParams
quick(std::uint64_t requests = 6000)
{
    SimParams p;
    p.requests = requests;
    p.seed = 7;
    return p;
}

RunMetrics
runOn(NetworkKind net, MemoryKind mem,
      std::unique_ptr<workload::Workload> wl,
      const SimParams &params = quick())
{
    const SystemConfig config = core::makeConfig(net, mem);
    return core::runExperiment(config, *wl, params);
}

TEST(Integration, SimulationCompletesAndConserves)
{
    auto metrics = runOn(NetworkKind::XBar, MemoryKind::OCM,
                         workload::makeUniform());
    EXPECT_EQ(metrics.requests_issued, 6000u);
    EXPECT_GT(metrics.elapsed, 0u);
    EXPECT_GT(metrics.achieved_bytes_per_second, 0.0);
    EXPECT_GT(metrics.avg_latency_ns, 20.0) << "below raw memory latency";
    EXPECT_EQ(metrics.config, "XBar/OCM");
    EXPECT_EQ(metrics.workload, "Uniform");
}

TEST(Integration, DeterministicAcrossRuns)
{
    auto a = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                   workload::makeTornado(), quick(3000));
    auto b = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                   workload::makeTornado(), quick(3000));
    EXPECT_METRICS_EQ(a, b);
}

TEST(Integration, UniformXbarBeatsMeshesBeatEcm)
{
    // The headline ordering of Figure 8 on a saturating pattern.
    auto lmesh_ecm = runOn(NetworkKind::LMesh, MemoryKind::ECM,
                           workload::makeUniform());
    auto hmesh_ocm = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                           workload::makeUniform());
    auto xbar_ocm = runOn(NetworkKind::XBar, MemoryKind::OCM,
                          workload::makeUniform());
    const double s_hmesh = xbar_ocm.speedupOver(lmesh_ecm);
    (void)s_hmesh;
    EXPECT_GT(hmesh_ocm.speedupOver(lmesh_ecm), 1.5)
        << "OCM + fast mesh must clearly beat the ECM baseline";
    EXPECT_GT(xbar_ocm.speedupOver(hmesh_ocm), 1.2)
        << "the crossbar must add speedup on top of the fast mesh";
    EXPECT_GT(xbar_ocm.speedupOver(lmesh_ecm), 2.0)
        << "paper: 2-6x on memory-intensive workloads";
}

TEST(Integration, EcmBandwidthCeiling)
{
    auto metrics = runOn(NetworkKind::HMesh, MemoryKind::ECM,
                         workload::makeUniform());
    // ECM aggregate is 0.96 TB/s; achieved bandwidth must respect it.
    EXPECT_LE(metrics.achieved_bytes_per_second, 0.96e12 * 1.05);
    EXPECT_GE(metrics.achieved_bytes_per_second, 0.3e12)
        << "a saturating workload should still get most of the ECM";
}

TEST(Integration, HotSpotIsMemoryLimitedNotNetworkLimited)
{
    // "memory bandwidth remains the performance limiter ... hence there
    // is less pressure on the interconnect" — the crossbar should add
    // little over the fast mesh under Hot Spot.
    auto hmesh = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                       workload::makeHotSpot(), quick(3000));
    auto xbar = runOn(NetworkKind::XBar, MemoryKind::OCM,
                      workload::makeHotSpot(), quick(3000));
    const double crossbar_gain = xbar.speedupOver(hmesh);
    EXPECT_LT(crossbar_gain, 1.3);
    // Achieved bandwidth pinned near one controller's 160 GB/s.
    EXPECT_LE(xbar.achieved_bytes_per_second, 160e9 * 1.1);
}

TEST(Integration, LowDemandWorkloadIndifferentToConfiguration)
{
    // Barnes-class applications "perform well due to their low
    // cache-miss rates" on every system (Section 5).
    auto lmesh_ecm = runOn(NetworkKind::LMesh, MemoryKind::ECM,
                           workload::makeSplash("Water-Sp"), quick(3000));
    auto xbar_ocm = runOn(NetworkKind::XBar, MemoryKind::OCM,
                          workload::makeSplash("Water-Sp"), quick(3000));
    EXPECT_LT(xbar_ocm.speedupOver(lmesh_ecm), 1.35)
        << "low-bandwidth workloads gain little from Corona";
}

TEST(Integration, MemoryIntensiveSplashGainsFromCrossbar)
{
    auto hmesh = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                       workload::makeSplash("Radix"), quick(6000));
    auto xbar = runOn(NetworkKind::XBar, MemoryKind::OCM,
                      workload::makeSplash("Radix"), quick(6000));
    EXPECT_GT(xbar.speedupOver(hmesh), 1.15)
        << "Radix-class demand is realized only with the crossbar";
}

TEST(Integration, LatencyOrderingAcrossMemorySystems)
{
    // Figure 10: ECM queueing inflates L2-miss latency dramatically on
    // demanding workloads; OCM deflates it.
    auto ecm = runOn(NetworkKind::HMesh, MemoryKind::ECM,
                     workload::makeSplash("FFT"), quick(4000));
    auto ocm = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                     workload::makeSplash("FFT"), quick(4000));
    EXPECT_GT(ecm.avg_latency_ns, ocm.avg_latency_ns * 1.5);
}

TEST(Integration, NetworkPowerModelsDiffer)
{
    auto xbar = runOn(NetworkKind::XBar, MemoryKind::OCM,
                      workload::makeUniform(), quick(3000));
    EXPECT_DOUBLE_EQ(xbar.network_power_w, 26.0);
    EXPECT_GT(xbar.token_wait_ns, 0.0);

    auto mesh = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                      workload::makeUniform(), quick(3000));
    EXPECT_GT(mesh.network_power_w, 0.0);
    EXPECT_GT(mesh.hop_traversals, 0u);
    EXPECT_DOUBLE_EQ(mesh.token_wait_ns, 0.0);
}

TEST(Integration, BurstyWorkloadBenefitsFromCrossbarLatency)
{
    // LU "appears to benefit mainly from the improved latency offered
    // by XBar/OCM" (Section 5): latency drops even though bandwidth
    // demand is moderate.
    auto hmesh = runOn(NetworkKind::HMesh, MemoryKind::OCM,
                       workload::makeSplash("LU"), quick(4000));
    auto xbar = runOn(NetworkKind::XBar, MemoryKind::OCM,
                      workload::makeSplash("LU"), quick(4000));
    EXPECT_LT(xbar.avg_latency_ns, hmesh.avg_latency_ns);
}

TEST(Integration, IdealNetworkUpperBounds)
{
    auto ideal = runOn(NetworkKind::Ideal, MemoryKind::OCM,
                       workload::makeUniform(), quick(3000));
    auto xbar = runOn(NetworkKind::XBar, MemoryKind::OCM,
                      workload::makeUniform(), quick(3000));
    // The contention-free network can only be faster.
    EXPECT_LE(ideal.elapsed, xbar.elapsed * 11 / 10);
}

TEST(Integration, TraceReplayRunsThroughSimulation)
{
    const std::string path =
        ::testing::TempDir() + "/integration_uniform.ctrace";
    {
        auto source = workload::makeUniform();
        std::ofstream out(path, std::ios::binary);
        trace::Writer writer(out, 1024, "uniform-trace");
        for (const auto &record :
             workload::captureTrace(*source, 2048, 3))
            writer.append(record);
        writer.finish();
    }
    workload::TraceReplayer replay(path);
    const SystemConfig config =
        core::makeConfig(NetworkKind::XBar, MemoryKind::OCM);
    auto metrics = core::runExperiment(config, replay, quick(2000));
    EXPECT_EQ(metrics.requests_issued, 2000u);
    EXPECT_GT(metrics.achieved_bytes_per_second, 0.0);
}

} // namespace
