#include "campaign/scenario_run.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "campaign/aggregate.hh"
#include "campaign/checkpoint.hh"
#include "campaign/progress.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "corona/env.hh"
#include "model/calibration.hh"
#include "model/executor.hh"
#include "sim/logging.hh"

namespace corona::campaign {

namespace {

/** An open-for-write file sink owned for the duration of the run. */
struct FileSink
{
    std::ofstream stream;
    std::unique_ptr<ResultSink> sink;
    const char *what = "";
};

enum class FileSinkKind
{
    Csv,
    JsonLines,
    Summary,
};

std::unique_ptr<FileSink>
openFileSink(const std::string &path, FileSinkKind kind,
             const char *what)
{
    if (path.empty())
        return nullptr;
    auto file = std::make_unique<FileSink>();
    file->what = what;
    file->stream.open(path, std::ios::trunc);
    if (!file->stream)
        sim::fatal(std::string(what) + ": cannot open \"" + path +
                   "\" for writing");
    switch (kind) {
      case FileSinkKind::Csv:
        file->sink = std::make_unique<CsvSink>(file->stream);
        break;
      case FileSinkKind::JsonLines:
        file->sink = std::make_unique<JsonLinesSink>(file->stream);
        break;
      case FileSinkKind::Summary:
        file->sink = std::make_unique<SummarySink>(&file->stream);
        break;
    }
    return file;
}

void
checkWritten(FileSink *file)
{
    if (!file)
        return;
    file->stream.flush();
    if (!file->stream)
        sim::fatal(std::string(file->what) +
                   ": write error, results file is incomplete");
}

/** The scenario's execution settings with CORONA_* overrides layered
 * on top. Mutates the scenario copy (requests) as well. */
ScenarioExecution
effectiveExecution(ScenarioSpec &scenario, EnvOverrides env)
{
    ScenarioExecution exec = scenario.execution;
    if (env == EnvOverrides::None)
        return exec;
    bool shard_from_env = false;
    if (const auto shard_text = core::env::nonEmpty("CORONA_SHARD")) {
        const auto shard = parseShardSpec(*shard_text);
        if (!shard)
            sim::fatal("CORONA_SHARD must be \"i/N\" with "
                       "1 <= i <= N, got \"" +
                       *shard_text + "\"");
        shard_from_env = !shard->isWhole();
        exec.shard = *shard;
    }
    if (const auto path = core::env::nonEmpty("CORONA_CHECKPOINT"))
        exec.checkpoint = *path;
    if (env == EnvOverrides::All) {
        if (const auto requests =
                core::env::positiveCount("CORONA_REQUESTS"))
            scenario.requests = *requests;
        if (const auto jobs = core::env::positiveCount("CORONA_JOBS"))
            exec.threads = static_cast<std::size_t>(*jobs);
        if (const auto path = core::env::nonEmpty("CORONA_SWEEP_CSV"))
            exec.csv = *path;
        if (const auto path = core::env::nonEmpty("CORONA_SWEEP_JSONL"))
            exec.jsonl = *path;
        if (const auto path = core::env::nonEmpty("CORONA_SUMMARY_CSV"))
            exec.summary = *path;
    }
    if (shard_from_env) {
        // CORONA_SHARD fans this scenario out over several processes,
        // but the sink paths written in the file are opened with
        // truncation — every shard would clobber the same file, and
        // no single shard's rows are the full grid. Refuse loudly;
        // per-shard paths must come from the same place the shard
        // did (the environment), or from per-shard scenario files.
        const auto check = [&](const std::string &effective_path,
                               const std::string &scenario_path,
                               const char *key, const char *env_name) {
            if (!scenario_path.empty() &&
                effective_path == scenario_path)
                sim::fatal(
                    "CORONA_SHARD=" + exec.shard.label() +
                    " would write this shard's slice over the "
                    "scenario's shared \"" +
                    key + "\" path \"" + scenario_path +
                    "\" (every shard truncates it) — set " + env_name +
                    " to a per-shard path, or use per-shard scenario "
                    "files");
        };
        check(exec.csv, scenario.execution.csv, "csv",
              "CORONA_SWEEP_CSV");
        check(exec.jsonl, scenario.execution.jsonl, "jsonl",
              "CORONA_SWEEP_JSONL");
        check(exec.summary, scenario.execution.summary, "summary",
              "CORONA_SUMMARY_CSV");
    }
    return exec;
}

} // namespace

void
ScenarioObsSetup::apply(const obs::CampaignObsOptions &observability,
                        const std::string &scenario_name,
                        RunnerOptions &options)
{
    if (!observability.enabled() && !observability.heartbeat)
        return;
    // Observability outputs live under the scenario's obs dir: per-run
    // files are named by global run index (disjoint across shards),
    // and the heartbeat stream and rollup file get a per-shard suffix
    // so concurrent shard processes never truncate each other's file.
    std::error_code ec;
    std::filesystem::create_directories(observability.dir, ec);
    if (ec)
        sim::fatal("scenario \"" + scenario_name +
                   "\": cannot create observability dir \"" +
                   observability.dir + "\": " + ec.message());
    options.observability = observability;
    if (observability.heartbeat) {
        std::string path = observability.dir + "/heartbeat";
        if (!options.shard.isWhole())
            path += "-" + std::to_string(options.shard.index + 1) +
                    "-" + std::to_string(options.shard.count);
        path += ".jsonl";
        _heartbeatStream.open(path, std::ios::trunc);
        if (!_heartbeatStream)
            sim::fatal("scenario \"" + scenario_name +
                       "\": cannot open heartbeat \"" + path +
                       "\" for writing");
        _heartbeat =
            std::make_unique<obs::HeartbeatWriter>(_heartbeatStream);
        options.heartbeat = _heartbeat.get();
    }
}

std::function<RunRecord(const RunPlan &)>
scenarioExecutor(const ScenarioSpec &scenario)
{
    const ScenarioExecution &exec = scenario.execution;
    if (exec.executor != "model") {
        if (!exec.calibration.empty())
            sim::fatal("scenario \"" + scenario.name +
                       "\": calibration is only meaningful with "
                       "executor = model");
        return {};
    }
    model::Calibration calibration;
    if (!exec.calibration.empty()) {
        std::ifstream in(exec.calibration);
        if (!in)
            sim::fatal("scenario \"" + scenario.name +
                       "\": cannot read calibration \"" +
                       exec.calibration + "\"");
        calibration = model::Calibration::load(in);
    }
    return model::planExecutor(model::AnalyticModel(),
                               std::move(calibration));
}

ScenarioRunResult
runScenario(const ScenarioSpec &scenario,
            const ScenarioRunOptions &options)
{
    ScenarioSpec effective = scenario;
    const ScenarioExecution exec =
        effectiveExecution(effective, options.env);
    const CampaignSpec spec = effective.resolve();

    ProgressReporter progress(std::cerr);
    RunnerOptions runner_options;
    runner_options.threads = exec.threads;
    runner_options.shard = exec.shard;
    if (!options.quiet && exec.progress)
        runner_options.progress = &progress;
    runner_options.execute = scenarioExecutor(effective);

    ScenarioObsSetup obs_setup;
    obs_setup.apply(effective.observability, effective.name,
                    runner_options);

    CampaignRunner runner(runner_options);
    const auto csv =
        openFileSink(exec.csv, FileSinkKind::Csv, "scenario csv sink");
    if (csv)
        runner.addSink(*csv->sink);
    const auto jsonl = openFileSink(exec.jsonl, FileSinkKind::JsonLines,
                                    "scenario jsonl sink");
    if (jsonl)
        runner.addSink(*jsonl->sink);
    const auto summary = openFileSink(
        exec.summary, FileSinkKind::Summary, "scenario summary sink");
    if (summary)
        runner.addSink(*summary->sink);
    std::unique_ptr<CheckpointFile> checkpoint;
    if (!exec.checkpoint.empty()) {
        checkpoint =
            std::make_unique<CheckpointFile>(exec.checkpoint, spec);
        runner.addSink(checkpoint->sink());
    }

    std::vector<RunRecord> records =
        runner.run(spec, checkpoint ? checkpoint->takeCompleted()
                                    : std::vector<RunRecord>{});

    checkWritten(csv.get());
    checkWritten(jsonl.get());
    checkWritten(summary.get());
    if (checkpoint)
        checkpoint->checkWritten();

    ScenarioRunResult result;
    result.spec = spec;
    result.shard = exec.shard;
    result.records = std::move(records);

    if (!result.complete()) {
        // No single shard holds the full grid: flush what this slice
        // produced and leave table rendering to whoever merges the
        // shards' checkpoints.
        if (!checkpoint && !csv && !jsonl && !summary)
            sim::warn("scenario \"" + effective.name +
                      "\" ran one shard with no file sink "
                      "(checkpoint / csv / jsonl / summary) — this "
                      "shard's results are discarded");
        if (summary)
            sim::warn("a summary sink under sharding aggregates only "
                      "this shard's replicates — for full-sample "
                      "statistics, merge the shards' checkpoints and "
                      "re-run un-sharded");
        if (!options.quiet)
            std::cerr << "shard " << exec.shard.label()
                      << " complete; merge the shard checkpoints and "
                         "re-run un-sharded to render results\n";
    }
    return result;
}

} // namespace corona::campaign
