/**
 * @file
 * Serializable experiment descriptions.
 *
 * A ScenarioSpec is the text-file twin of CampaignSpec: every axis is
 * named data — workload expressions resolved through
 * workload::registry(), configuration expressions resolved through
 * the core::namedConfig()/configKnobs() tables, and overrides as
 * knob=value lists applied through the SimParams knob table — so an
 * experiment can be parsed, fingerprinted, shipped to a remote
 * worker, and replayed byte-identically. resolve() lowers a scenario
 * to today's CampaignSpec; everything downstream (runner, sinks,
 * shard, checkpoint, model executor) is unchanged.
 *
 * The file schema, every key of every section with a comment per key,
 * is scenarios/reference.scenario; each [scenario], [execution] and
 * [observability] key is declared once, as a core::Knob row in
 * scenario.cc.
 *
 * Axis expressions are whitespace-separated: leading tokens (which
 * may contain spaces, e.g. "Hot Spot") name the registry entry or
 * label, and key=value tokens set knobs; a value may be
 * double-quoted to contain spaces (label="XBar/OCM c64 ...").
 */

#ifndef CORONA_CAMPAIGN_SCENARIO_HH
#define CORONA_CAMPAIGN_SCENARIO_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campaign/shard.hh"
#include "campaign/spec.hh"
#include "corona/knobs.hh"
#include "obs/observe.hh"

namespace corona::campaign {

/** A parsed axis expression: name + knob list. */
struct AxisExpression
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> knobs;
};

/**
 * Tokenise one axis expression (quote-aware). Fatal on an empty
 * expression, an empty knob key, an unterminated quote, or a name
 * token after the first knob; @p what names the axis in diagnostics.
 */
AxisExpression parseAxisExpression(const std::string &text,
                                   const char *what);

/** The canonical single-spaced form of @p expression (knob values
 * with spaces re-quoted). Used for axis labels, so two expressions
 * differing only in whitespace are the same axis entry. */
std::string canonicalExpression(const AxisExpression &expression);

/** Runtime settings carried by the scenario ([execution] section).
 * Environment variables (CORONA_JOBS, CORONA_SHARD, ...) override
 * these at run time — see scenario_run.hh. */
struct ScenarioExecution
{
    /** Worker threads; 0 = CORONA_JOBS or hardware concurrency. */
    std::size_t threads = 0;
    /** Slice of the grid this process executes. */
    ShardSpec shard{};
    /** Crash-tolerant checkpoint path; empty = none. */
    std::string checkpoint;
    /** "simulate" (event simulator) or "model" (analytical). */
    std::string executor = "simulate";
    /** Residual-calibration CSV for the model executor. */
    std::string calibration;
    /** Per-run CSV / JSON-lines and per-cell summary sink paths. */
    std::string csv, jsonl, summary;
    /** Progress/ETA reporting on stderr. */
    bool progress = true;
};

/** A serializable experiment description. */
struct ScenarioSpec
{
    std::string name = "campaign";

    std::uint64_t requests = 50'000;
    std::uint64_t warmup_requests = 0;
    /** Base SimParams seed (every run under SeedPolicy::Fixed). */
    std::uint64_t seed = 1;
    std::uint64_t campaign_seed = 1;
    SeedPolicy seed_policy = SeedPolicy::Derived;
    /** Seed-replicate axis salts; empty = single salt of 0. */
    std::vector<std::uint64_t> seeds;

    /** Axis expressions, verbatim ("all" expands the registry). */
    std::vector<std::string> workloads;
    /** Config expressions ("paper" expands the five paper points). */
    std::vector<std::string> configs;
    /** Override expressions: "label [knob=value ...]". */
    std::vector<std::string> overrides;

    ScenarioExecution execution;
    /** The [observability] section: per-run in-sim recording plus the
     * campaign heartbeat stream (see src/obs). Every plane defaults
     * off; a section with any plane or the heartbeat on requires
     * executor = simulate (the analytical model has no event stream
     * to observe). */
    obs::CampaignObsOptions observability;

    /**
     * Lower to an executable CampaignSpec: workload expressions
     * through workload::registry(), configs through
     * core::namedConfig() + applyConfigKnob(), overrides through
     * applySimParamsKnob(). Fatal on any unknown name, unknown knob,
     * or malformed value. A knobbed workload/config without an
     * explicit label gets its canonical expression as the axis label,
     * so distinct variants never alias checkpoint fingerprints.
     */
    CampaignSpec resolve() const;
};

/** The keys of the [scenario], [execution] and [observability]
 * sections, one row each, in canonical serialisation order. */
std::span<const core::Knob<ScenarioSpec>> scenarioKnobs();
std::span<const core::Knob<ScenarioExecution>> executionKnobs();
std::span<const core::Knob<obs::CampaignObsOptions>> observabilityKnobs();

/** Parse scenario text; fatal (with line numbers) on any violation. */
ScenarioSpec parseScenario(std::string_view text);

/** Read and parse @p path; fatal when unreadable. */
ScenarioSpec loadScenarioFile(const std::string &path);

/**
 * Canonical serialisation. parseScenario(serializeScenario(s)) is
 * byte-stable: serialising the re-parsed spec reproduces the exact
 * same bytes, so generated scenario files diff and fingerprint
 * cleanly.
 */
std::string serializeScenario(const ScenarioSpec &spec);

} // namespace corona::campaign

#endif // CORONA_CAMPAIGN_SCENARIO_HH
