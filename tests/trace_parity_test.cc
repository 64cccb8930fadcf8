/**
 * @file
 * Capture→replay parity: a trace captured from a generator run, when
 * replayed through the same scenario cell, must reproduce the
 * generator scenario's CSV, JSONL, and checkpoint files byte for
 * byte — pooled or fresh systems, at any worker count. Also covers
 * scenario-text round trips for `trace:` axes and replay-grid
 * determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "corona/knobs.hh"
#include "corona/simulation.hh"
#include "trace/capture.hh"
#include "trace/ctrace.hh"
#include "workload/registry.hh"

namespace {

using namespace corona;

constexpr std::uint64_t kRequests = 600;
constexpr std::uint64_t kSeed = 11;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::string
parityDir()
{
    const std::string dir = ::testing::TempDir() + "/trace_parity";
    std::filesystem::create_directories(dir);
    return dir;
}

/** The generator scenario: one cell, fixed seed, all sinks on. */
campaign::ScenarioSpec
baseScenario(const std::string &dir, const std::string &tag)
{
    campaign::ScenarioSpec scenario;
    scenario.name = "parity"; // Shared name → shared fingerprint.
    scenario.requests = kRequests;
    scenario.seed = kSeed;
    scenario.seed_policy = campaign::SeedPolicy::Fixed;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM"};
    scenario.execution.progress = false;
    scenario.execution.csv = dir + "/" + tag + ".csv";
    scenario.execution.jsonl = dir + "/" + tag + ".jsonl";
    scenario.execution.checkpoint = dir + "/" + tag + ".ckpt";
    return scenario;
}

/** Run @p scenario from scratch: a checkpoint an earlier run of this
 * test left in the temp dir would otherwise be replayed, not run. */
campaign::ScenarioRunResult
run(const campaign::ScenarioSpec &scenario)
{
    std::filesystem::remove(scenario.execution.checkpoint);
    return campaign::runScenario(
        scenario, {.quiet = true, .env = campaign::EnvOverrides::None});
}

/** run(), with every cell on a freshly built context and workload: the
 * resolved grid through a CampaignRunner whose executor is
 * campaign::executePlan, into the sink and checkpoint paths runScenario
 * would open. */
void
runFresh(const campaign::ScenarioSpec &scenario)
{
    const campaign::CampaignSpec spec = scenario.resolve();
    std::filesystem::remove(scenario.execution.checkpoint);
    std::ofstream csv(scenario.execution.csv, std::ios::trunc);
    std::ofstream jsonl(scenario.execution.jsonl, std::ios::trunc);
    campaign::CsvSink csv_sink(csv);
    campaign::JsonLinesSink jsonl_sink(jsonl);
    campaign::CheckpointFile checkpoint(scenario.execution.checkpoint,
                                        spec);
    campaign::RunnerOptions options;
    options.threads = scenario.execution.threads;
    options.execute = campaign::executePlan;
    campaign::CampaignRunner runner(options);
    runner.addSink(csv_sink);
    runner.addSink(jsonl_sink);
    runner.addSink(checkpoint.sink());
    runner.run(spec);
    checkpoint.checkWritten();
}

/** Capture the one cell the generator scenario runs: same config,
 * same SimParams, fresh workload — the writer sees exactly the miss
 * stream the scenario's simulation drew. */
std::string
captureParityTrace(const std::string &dir)
{
    const std::string path = dir + "/uniform.ctrace";
    auto source = workload::registryFactory("Uniform", {})();
    core::SimParams params;
    params.requests = kRequests;
    params.seed = kSeed; // SeedPolicy::Fixed → base seed verbatim.
    std::ofstream out(path, std::ios::binary);
    trace::WriterOptions options;
    options.synthetic_source = true; // Uniform is a synthetic axis.
    trace::Writer writer(out, static_cast<std::uint32_t>(
                                  source->threads()),
                         "Uniform", options);
    trace::captureRun(core::namedConfig("XBar/OCM"), *source, params,
                      writer);
    return path;
}

void
expectSinkBytesEqual(const campaign::ScenarioSpec &a,
                     const campaign::ScenarioSpec &b,
                     const std::string &what)
{
    EXPECT_EQ(slurp(a.execution.csv), slurp(b.execution.csv)) << what;
    EXPECT_EQ(slurp(a.execution.jsonl), slurp(b.execution.jsonl))
        << what;
    EXPECT_EQ(slurp(a.execution.checkpoint),
              slurp(b.execution.checkpoint))
        << what;
}

TEST(TraceParity, ReplayReproducesGeneratorSinkAndCheckpointBytes)
{
    const std::string dir = parityDir();
    const campaign::ScenarioSpec generator = baseScenario(dir, "gen");
    run(generator);

    const std::string trace_path = captureParityTrace(dir);

    // The replay axis takes the generator's label, so every CSV/JSONL
    // field and the checkpoint fingerprint match the source axis.
    campaign::ScenarioSpec replay = baseScenario(dir, "rep");
    replay.workloads = {"trace:" + trace_path + " label=Uniform"};
    const auto result = run(replay);
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_TRUE(result.records[0].ok) << result.records[0].error;
    expectSinkBytesEqual(generator, replay, "replay vs generator");

    // The same replay with fresh systems per run...
    campaign::ScenarioSpec fresh = baseScenario(dir, "rep_fresh");
    fresh.workloads = replay.workloads;
    runFresh(fresh);
    expectSinkBytesEqual(generator, fresh, "fresh systems");

    // ...and with four worker threads.
    campaign::ScenarioSpec wide = baseScenario(dir, "rep_wide");
    wide.workloads = replay.workloads;
    wide.execution.threads = 4;
    run(wide);
    expectSinkBytesEqual(generator, wide, "four workers");
}

TEST(TraceParity, ReplayGridIsDeterministicAcrossWorkersAndPooling)
{
    const std::string dir = parityDir();
    const std::string trace_path = captureParityTrace(dir);

    // A wider replay grid (2 configs x 2 overrides) has no generator
    // twin — cross-thread interleavings differ per cell — but must be
    // self-deterministic at any worker count, pooled or fresh.
    const auto grid = [&](const std::string &tag, std::size_t threads,
                          bool pooled) {
        campaign::ScenarioSpec scenario = baseScenario(dir, tag);
        scenario.name = "trace-grid";
        scenario.workloads = {"trace:" + trace_path +
                              " label=Uniform loop=2"};
        scenario.configs = {"XBar/OCM", "HMesh/OCM"};
        scenario.overrides = {"base", "warm warmup_requests=100"};
        scenario.execution.threads = threads;
        if (pooled)
            run(scenario);
        else
            runFresh(scenario);
        return scenario;
    };
    const auto serial = grid("grid_serial", 1, true);
    expectSinkBytesEqual(serial, grid("grid_wide", 4, true),
                         "1 vs 4 workers");
    expectSinkBytesEqual(serial, grid("grid_fresh", 4, false),
                         "pooled vs fresh");
}

TEST(TraceParity, ScenarioTextRoundTripsTraceAxes)
{
    const std::string dir = parityDir();
    const std::string trace_path = captureParityTrace(dir);

    const std::string text = "[scenario]\n"
                             "name = roundtrip\n"
                             "requests = 100\n"
                             "seed_policy = fixed\n"
                             "[workloads]\n"
                             "workload = trace:" +
                             trace_path +
                             " label=Uniform time_scale=1.5\n"
                             "[configs]\n"
                             "config = XBar/OCM\n";
    const campaign::ScenarioSpec parsed =
        campaign::parseScenario(text);
    ASSERT_EQ(parsed.workloads.size(), 1u);

    // Serialise → parse → serialise is byte-stable for trace axes.
    const std::string serialized =
        campaign::serializeScenario(parsed);
    EXPECT_EQ(serialized, campaign::serializeScenario(
                              campaign::parseScenario(serialized)));

    // And the parsed scenario resolves to a grid whose axis label is
    // the label knob, flagged synthetic from the trace header.
    const campaign::CampaignSpec campaign = parsed.resolve();
    ASSERT_EQ(campaign.workloads.size(), 1u);
    EXPECT_EQ(campaign.workloads[0].name, "Uniform");
    EXPECT_TRUE(campaign.workloads[0].synthetic);
    EXPECT_EQ(campaign.workloads[0].make()->name(), "Uniform");
}

} // namespace
