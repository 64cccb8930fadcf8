/**
 * @file
 * Unit tests for the DWDM wavelength plan (Figures 4-5) and the
 * per-run report collector.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "corona/report.hh"
#include "corona/simulation.hh"
#include "photonics/channel_plan.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;
using photonics::ChannelPlan;
using photonics::ChannelPlanParams;

TEST(ChannelPlan, ConflictFreeByConstruction)
{
    const ChannelPlan plan;
    EXPECT_TRUE(plan.conflictFree());
    // 64 channels x 4 guides x 64 lambdas + 64 tokens + 1 bcast token.
    EXPECT_EQ(plan.size(), 64u * 4 * 64 + 64 + 1);
}

TEST(ChannelPlan, TokenTableMatchesFigure5)
{
    // Figure 5: home cluster k arbitrates with wavelength k (one comb
    // covers all 64 channels on one arbitration guide).
    const ChannelPlan plan;
    for (std::size_t home = 0; home < 64; ++home) {
        EXPECT_EQ(plan.tokenIndexOf(home), home);
        EXPECT_EQ(plan.tokenGuideOf(home), 0u);
    }
    EXPECT_THROW(plan.tokenIndexOf(64), std::out_of_range);
}

TEST(ChannelPlan, TokensSpillToSecondGuideBeyondOneComb)
{
    ChannelPlanParams params;
    params.clusters = 96; // More channels than comb lines.
    const ChannelPlan plan(params);
    EXPECT_EQ(plan.tokenGuideOf(63), 0u);
    EXPECT_EQ(plan.tokenGuideOf(64), 1u);
    EXPECT_EQ(plan.tokenIndexOf(64), 0u);
    EXPECT_TRUE(plan.conflictFree());
}

TEST(ChannelPlan, BundleNamesAndValidation)
{
    const ChannelPlan plan;
    EXPECT_EQ(plan.dataBundleOf(12), "xbar-data-12");
    EXPECT_THROW(plan.dataBundleOf(99), std::out_of_range);
    ChannelPlanParams bad;
    bad.clusters = 0;
    EXPECT_THROW(ChannelPlan{bad}, std::invalid_argument);
}

TEST(ChannelPlan, AssignmentsCarryPhysicalWavelengths)
{
    const ChannelPlan plan;
    for (const auto &a : plan.assignments()) {
        EXPECT_GT(a.lambda_nm, 1200.0);
        EXPECT_LT(a.lambda_nm, 1400.0);
        EXPECT_LT(a.comb_index, 64u);
        EXPECT_FALSE(a.waveguide.empty());
        EXPECT_FALSE(a.function.empty());
    }
}

TEST(RunReport, CollectsAndPrints)
{
    auto workload = workload::makeHotSpot();
    core::SimParams params;
    params.requests = 2000;
    core::SimContext ctx(
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM));
    core::NetworkSimulation simulation(ctx, *workload);
    // Use the simulation's own params default; run and collect.
    const auto metrics = simulation.run();
    const auto report = core::collectReport(metrics, simulation.system());
    ASSERT_EQ(report.clusters.size(), 64u);

    // Hot Spot concentrates on cluster 0: extreme load skew.
    EXPECT_GT(report.mcLoadSkew(), 10.0);
    std::uint64_t total_mc = 0;
    for (const auto &c : report.clusters)
        total_mc += c.mc_accesses;
    EXPECT_EQ(total_mc, metrics.requests_issued);

    std::ostringstream oss;
    report.print(oss);
    EXPECT_NE(oss.str().find("Hot Spot"), std::string::npos);
    EXPECT_NE(oss.str().find("Busiest memory controllers"),
              std::string::npos);
}

TEST(RunReport, UniformTrafficIsBalanced)
{
    auto workload = workload::makeUniform();
    core::SimParams params;
    params.requests = 5000;
    core::SimContext ctx(
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM));
    core::NetworkSimulation simulation(ctx, *workload, params);
    const auto metrics = simulation.run();
    const auto report = core::collectReport(metrics, simulation.system());
    EXPECT_LT(report.mcLoadSkew(), 1.6)
        << "uniform traffic must spread across controllers";
}

} // namespace
