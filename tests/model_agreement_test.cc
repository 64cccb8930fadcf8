/**
 * @file
 * Model-vs-simulator agreement: the fig8/fig9-style grid (all 15
 * workloads x the 5 paper configurations) runs through both
 * executors. The analytic model is calibrated on one simulated
 * anchor replicate and checked against an independent replicate
 * (different derived seeds), so the assertion is meaningful: the
 * calibrated closed forms must predict a run they have never seen —
 * achieved bandwidth within 15% per cell, latency within 30%.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "corona/knobs.hh"
#include "model/calibration.hh"
#include "model/executor.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

campaign::CampaignSpec
figGridSpec(std::uint64_t campaign_seed)
{
    campaign::CampaignSpec spec;
    spec.name = "fig9-agreement";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"Hot Spot", true, workload::makeHotSpot},
        {"Tornado", true, workload::makeTornado},
        {"Transpose", true, workload::makeTranspose},
    };
    for (const auto &params : workload::splashSuite()) {
        spec.workloads.push_back(
            {params.name, false, [name = params.name] {
                 return workload::makeSplash(name);
             }});
    }
    spec.configs = core::paperConfigs();
    spec.base.requests = 4000;
    spec.base.warmup_requests = 800;
    spec.campaign_seed = campaign_seed;
    spec.seed_policy = campaign::SeedPolicy::Derived;
    return spec;
}

std::vector<campaign::RunRecord>
simulate(const campaign::CampaignSpec &spec)
{
    campaign::CampaignRunner runner;
    return runner.run(spec);
}

TEST(ModelAgreement, CalibratedModelTracksTheSimulatedFig9Grid)
{
    // Anchor replicate: fit residual factors per (config, workload).
    const campaign::CampaignSpec anchor_spec = figGridSpec(11);
    const std::vector<campaign::RunRecord> anchor =
        simulate(anchor_spec);
    model::Calibration calibration;
    calibration.fit(anchor_spec, anchor);
    ASSERT_TRUE(calibration.fitted());
    ASSERT_EQ(calibration.keys().size(), 75u);

    // Independent replicate the calibration has never seen.
    const campaign::CampaignSpec check_spec = figGridSpec(12);
    const std::vector<campaign::RunRecord> simulated =
        simulate(check_spec);

    // The same grid through the analytic executor, calibrated.
    campaign::RunnerOptions model_options;
    model_options.execute =
        model::planExecutor(model::AnalyticModel(), calibration);
    campaign::CampaignRunner model_runner(model_options);
    const std::vector<campaign::RunRecord> modelled =
        model_runner.run(check_spec);

    ASSERT_EQ(simulated.size(), 75u);
    ASSERT_EQ(modelled.size(), 75u);

    double worst_bw_error = 0.0;
    std::string worst_cell;
    for (std::size_t i = 0; i < simulated.size(); ++i) {
        const auto &sim = simulated[i];
        const auto &mod = modelled[i];
        ASSERT_TRUE(sim.ok) << sim.error;
        ASSERT_TRUE(mod.ok) << mod.error;
        ASSERT_EQ(sim.workload, mod.workload);
        ASSERT_EQ(sim.config, mod.config);

        const std::string cell = sim.workload + " on " + sim.config;
        const double sim_bw = sim.metrics.achieved_bytes_per_second;
        const double mod_bw = mod.metrics.achieved_bytes_per_second;
        ASSERT_GT(sim_bw, 0.0) << cell;
        const double bw_error = std::abs(mod_bw - sim_bw) / sim_bw;
        EXPECT_LE(bw_error, 0.15)
            << cell << ": model " << mod_bw / 1e12
            << " TB/s vs simulated " << sim_bw / 1e12 << " TB/s";
        if (bw_error > worst_bw_error) {
            worst_bw_error = bw_error;
            worst_cell = cell;
        }

        const double sim_lat = sim.metrics.avg_latency_ns;
        const double mod_lat = mod.metrics.avg_latency_ns;
        ASSERT_GT(sim_lat, 0.0) << cell;
        EXPECT_LE(std::abs(mod_lat - sim_lat) / sim_lat, 0.30)
            << cell << ": model " << mod_lat
            << " ns vs simulated " << sim_lat << " ns";
    }
    std::cerr << "model agreement: worst bandwidth error "
              << worst_bw_error * 100.0 << "% (" << worst_cell
              << ")\n";
}

} // namespace
