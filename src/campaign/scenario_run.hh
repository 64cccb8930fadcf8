/**
 * @file
 * The unified scenario front end: everything needed to execute a
 * ScenarioSpec — sink wiring, checkpoint session, shard selection,
 * executor choice (event simulator or analytical model), progress —
 * driven entirely by the scenario's [execution] section.
 *
 * Environment variables are overrides, not the primary interface:
 * CORONA_JOBS, CORONA_SHARD, CORONA_CHECKPOINT, CORONA_SWEEP_CSV,
 * CORONA_SWEEP_JSONL, CORONA_SUMMARY_CSV, and CORONA_REQUESTS each
 * replace the corresponding scenario setting when set (strictly
 * parsed via core::env), so a launcher can steer a worker that was
 * handed a scenario file without rewriting it, and historical
 * CORONA_* workflows keep working unchanged.
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_RUN_HH
#define CORONA_CAMPAIGN_SCENARIO_RUN_HH

#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/shard.hh"
#include "campaign/spec.hh"

namespace corona::campaign {

/** Which CORONA_* environment overrides runScenario honours. */
enum class EnvOverrides
{
    /** The scenario runs exactly as written. */
    None,
    /** Only CORONA_SHARD / CORONA_CHECKPOINT — the launcher-steered
     * worker contract. A worker must not inherit CORONA_REQUESTS or
     * sink paths from the operator's shell: a changed budget would
     * shift the checkpoint fingerprint away from the primary's merge
     * spec, and a shared sink path would be truncated by every
     * concurrent worker at once. */
    ShardOnly,
    /** Every variable (requests, threads, shard, checkpoint, sinks) —
     * the interactive front-end contract (corona-run, fig benches). */
    All,
};

/** Caller knobs for runScenario. */
struct ScenarioRunOptions
{
    /** Suppress progress/ETA and shard chatter on stderr. */
    bool quiet = false;
    /** Which CORONA_* variables override the scenario's settings. */
    EnvOverrides env = EnvOverrides::All;
};

/**
 * The run executor the scenario's [execution] section requests: an
 * empty function for executor = simulate (the runner's built-in
 * event-simulator path), or model::planExecutor with the calibration
 * file loaded for executor = model. Fatal when the calibration file
 * is unreadable or set without executor = model. Exposed so hosts
 * that drive a CampaignRunner directly (corona-launch workers, the
 * --verify reference run) honour the same setting as runScenario.
 */
std::function<RunRecord(const RunPlan &)>
scenarioExecutor(const ScenarioSpec &scenario);

/**
 * Observability wiring shared by runScenario and corona-launch's
 * shard workers, so a launched scenario observes exactly like a
 * directly-run one: creates the obs dir, copies the [observability]
 * settings (sampling, tracing, snapshots, rollup) into
 * RunnerOptions::observability, and opens the heartbeat stream with a
 * per-shard filename suffix so concurrent shard processes never
 * truncate each other. Owns the open heartbeat stream — keep the
 * setup alive for the whole campaign run.
 */
class ScenarioObsSetup
{
  public:
    /**
     * Wire @p observability into @p options. @p options.shard must
     * already hold the shard this process executes (it names the
     * heartbeat and rollup files). No-op when no plane and no
     * heartbeat is on.
     */
    void apply(const obs::CampaignObsOptions &observability,
               const std::string &scenario_name,
               RunnerOptions &options);

  private:
    std::ofstream _heartbeatStream;
    std::unique_ptr<obs::HeartbeatWriter> _heartbeat;
};

/** What one scenario execution produced. */
struct ScenarioRunResult
{
    /** The resolved campaign (after environment overrides). */
    CampaignSpec spec;
    /** The slice this process executed. */
    ShardSpec shard{};
    /** This shard's records, ascending run index. */
    std::vector<RunRecord> records;

    /** False when only one shard of the grid ran here: file sinks
     * are flushed but no single process holds the full grid. */
    bool complete() const { return shard.isWhole(); }
};

/**
 * Resolve and execute @p scenario to completion: apply environment
 * overrides (unless disabled), open the scenario's sinks and
 * checkpoint (fatal on any unwritable path), pick the executor
 * (simulate, or model with optional residual calibration), run the
 * campaign — resuming from the checkpoint when one exists — and
 * verify every sink flushed cleanly.
 */
ScenarioRunResult runScenario(const ScenarioSpec &scenario,
                              const ScenarioRunOptions &options = {});

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SCENARIO_RUN_HH
