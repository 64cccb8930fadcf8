#include "campaign/scenario.hh"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string_view>

#include "campaign/scenario_format.hh"
#include "sim/logging.hh"
#include "trace/replayer.hh"
#include "workload/registry.hh"

namespace corona::campaign {

namespace {

[[noreturn]] void
badExpression(const char *what, const std::string &text,
              const std::string &message)
{
    sim::fatal(std::string(what) + " expression \"" + text + "\": " +
               message);
}

/** Split @p text into whitespace-separated tokens; a double-quoted
 * span (after a knob's '=' or anywhere) keeps its spaces, quotes
 * stripped. Fatal on an unterminated quote. */
std::vector<std::string>
tokenize(const std::string &text, const char *what)
{
    std::vector<std::string> tokens;
    std::string current;
    bool in_token = false;
    bool in_quote = false;
    for (const char c : text) {
        if (c == '"') {
            in_quote = !in_quote;
            in_token = true; // "" is a valid (empty) value.
            continue;
        }
        if (!in_quote && (c == ' ' || c == '\t')) {
            if (in_token)
                tokens.push_back(current);
            current.clear();
            in_token = false;
            continue;
        }
        current += c;
        in_token = true;
    }
    if (in_quote)
        badExpression(what, text, "unterminated '\"'");
    if (in_token)
        tokens.push_back(current);
    return tokens;
}

/** Quote @p value for canonical emission when needed. */
std::string
quoteValue(const std::string &value)
{
    if (value.empty() || value.find(' ') != std::string::npos ||
        value.find('\t') != std::string::npos)
        return "\"" + value + "\"";
    return value;
}

[[noreturn]] void
badScenario(const std::string &message)
{
    sim::fatal("scenario: " + message);
}

[[noreturn]] void
badEntry(const ScenarioEntry &entry, const std::string &message)
{
    sim::fatal("scenario: line " + std::to_string(entry.line) + ": " +
               message);
}

/** Any text, the empty string included. */
std::string
parseText(std::string &field, const std::string &text)
{
    field = text;
    return {};
}

std::string
parseNonEmpty(std::string &field, const std::string &text)
{
    if (text.empty())
        return "a non-empty value";
    field = text;
    return {};
}

std::string
parseSwitch(bool &field, const std::string &text)
{
    const auto value = core::parseOnOff(text);
    if (!value)
        return "on or off";
    field = *value;
    return {};
}

std::string
formatSwitch(bool field)
{
    return field ? "on" : "off";
}

/** Comma-separated unsigned salts; an empty item anywhere is
 * malformed. */
std::string
parseSeeds(std::vector<std::uint64_t> &field, const std::string &text)
{
    std::vector<std::uint64_t> seeds;
    for (std::size_t at = 0;;) {
        const std::size_t comma = text.find(',', at);
        const auto salt = core::parseUnsigned(
            std::string_view(text).substr(at, comma - at));
        if (!salt)
            return "a comma-separated list of unsigned integers";
        seeds.push_back(*salt);
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    field = std::move(seeds);
    return {};
}

std::string
formatSeeds(const std::vector<std::uint64_t> &seeds)
{
    std::string text;
    for (const std::uint64_t salt : seeds) {
        if (!text.empty())
            text += ",";
        text += std::to_string(salt);
    }
    return text;
}

constexpr std::pair<SeedPolicy, const char *> seedPolicyNames[] = {
    {SeedPolicy::Fixed, "fixed"},
    {SeedPolicy::Derived, "derived"},
};

constexpr core::Knob<ScenarioSpec> scenarioKnobTable[] = {
    {"name", "campaign name, part of every checkpoint fingerprint",
     [](auto &s, auto &v) { return parseNonEmpty(s.name, v); },
     [](auto &s) { return s.name; }},
    {"requests", "primary misses per run (positive)",
     [](auto &s, auto &v) { return core::parsePositive(s.requests, v); },
     [](auto &s) { return std::to_string(s.requests); }},
    {"warmup_requests", "unmeasured warm-up misses per run",
     [](auto &s, auto &v) {
         return core::parseCount(s.warmup_requests, v);
     },
     [](auto &s) { return std::to_string(s.warmup_requests); }},
    {"seed", "base SimParams seed (every run's, under seed_policy fixed)",
     [](auto &s, auto &v) { return core::parseCount(s.seed, v); },
     [](auto &s) { return std::to_string(s.seed); }},
    {"campaign_seed", "splitmix64 root of the derived per-run seeds",
     [](auto &s, auto &v) { return core::parseCount(s.campaign_seed, v); },
     [](auto &s) { return std::to_string(s.campaign_seed); }},
    {"seed_policy", "per-run seeds: fixed | derived",
     [](auto &s, auto &v) {
         return core::parseName(s.seed_policy, v, seedPolicyNames);
     },
     [](auto &s) { return core::formatName(s.seed_policy, seedPolicyNames); }},
    {"seeds", "seed-replicate axis salts, comma-separated",
     [](auto &s, auto &v) { return parseSeeds(s.seeds, v); },
     [](auto &s) { return formatSeeds(s.seeds); }},
};

constexpr core::Knob<ScenarioExecution> executionKnobTable[] = {
    {"threads", "campaign workers (0 = CORONA_JOBS or hardware concurrency)",
     [](auto &e, auto &v) { return core::parseCount(e.threads, v); },
     [](auto &e) { return std::to_string(e.threads); }},
    {"shard", "this process's slice i/N of the grid",
     [](auto &e, auto &v) -> std::string {
         const auto shard = parseShardSpec(v);
         if (!shard)
             return "\"i/N\" with 1 <= i <= N";
         e.shard = *shard;
         return {};
     },
     [](auto &e) { return e.shard.label(); }},
    {"checkpoint", "crash-tolerant resume file (empty = none)",
     [](auto &e, auto &v) { return parseText(e.checkpoint, v); },
     [](auto &e) { return e.checkpoint; }},
    {"executor", "run executor: simulate | model",
     [](auto &e, auto &v) -> std::string {
         if (v != "simulate" && v != "model")
             return "simulate or model";
         e.executor = v;
         return {};
     },
     [](auto &e) { return e.executor; }},
    {"calibration", "residual-factor CSV (executor = model only)",
     [](auto &e, auto &v) { return parseText(e.calibration, v); },
     [](auto &e) { return e.calibration; }},
    {"csv", "per-run CSV sink path",
     [](auto &e, auto &v) { return parseText(e.csv, v); },
     [](auto &e) { return e.csv; }},
    {"jsonl", "per-run JSON-lines sink path",
     [](auto &e, auto &v) { return parseText(e.jsonl, v); },
     [](auto &e) { return e.jsonl; }},
    {"summary", "per-cell replicate statistics CSV path",
     [](auto &e, auto &v) { return parseText(e.summary, v); },
     [](auto &e) { return e.summary; }},
    {"progress", "progress/ETA on stderr",
     [](auto &e, auto &v) { return parseSwitch(e.progress, v); },
     [](auto &e) { return formatSwitch(e.progress); }},
};

constexpr core::Knob<obs::CampaignObsOptions> observabilityKnobTable[] = {
    {"sample_period", "ticks between time-series samples (0 = off)",
     [](auto &o, auto &v) { return core::parseCount(o.sample_period, v); },
     [](auto &o) { return std::to_string(o.sample_period); }},
    {"trace_capacity", "event-trace ring size in events (0 = off)",
     [](auto &o, auto &v) { return core::parseCount(o.trace_capacity, v); },
     [](auto &o) { return std::to_string(o.trace_capacity); }},
    {"snapshot", "end-of-run registry snapshot CSV per run",
     [](auto &o, auto &v) { return parseSwitch(o.snapshot, v); },
     [](auto &o) { return formatSwitch(o.snapshot); }},
    {"heartbeat", "host-profiling heartbeat JSONL stream",
     [](auto &o, auto &v) { return parseSwitch(o.heartbeat, v); },
     [](auto &o) { return formatSwitch(o.heartbeat); }},
    {"rollup", "campaign rollup of end-of-run registry values",
     [](auto &o, auto &v) { return parseSwitch(o.rollup, v); },
     [](auto &o) { return formatSwitch(o.rollup); }},
    {"dir", "output directory for every observability file",
     [](auto &o, auto &v) { return parseNonEmpty(o.dir, v); },
     [](auto &o) { return o.dir; }},
};

/** Parse @p section into @p target: every key a row of @p knobs, each
 * at most once, each value one its row accepts. */
template <typename Section>
void
parseSection(const ScenarioSection &section,
             std::span<const core::Knob<Section>> knobs, Section &target)
{
    for (const ScenarioEntry &entry : section.entries) {
        const auto knob =
            std::find_if(knobs.begin(), knobs.end(),
                         [&entry](const core::Knob<Section> &row) {
                             return entry.key == row.key;
                         });
        if (knob == knobs.end())
            badEntry(entry, "unknown key \"" + entry.key + "\" in [" +
                                section.name + "]");
        if (std::count_if(section.entries.begin(), section.entries.end(),
                          [&entry](const ScenarioEntry &other) {
                              return other.key == entry.key;
                          }) > 1)
            badEntry(entry, "duplicate key \"" + entry.key + "\" in [" +
                                section.name + "]");
        const std::string expected = knob->parse(target, entry.value);
        if (!expected.empty())
            badEntry(entry, entry.key + " expects " + expected +
                                ", got \"" + entry.value + "\"");
    }
}

/** Append a [@p name] section holding the rows of @p knobs whose
 * formatted value differs from the default-constructed section's, plus
 * the @p always keys; an empty section is left out. */
template <typename Section>
void
formatSection(ScenarioDoc &doc, const char *name,
              std::span<const core::Knob<Section>> knobs,
              const Section &section,
              std::initializer_list<std::string_view> always = {})
{
    const Section defaults{};
    ScenarioSection out{name, {}, 0};
    for (const core::Knob<Section> &knob : knobs) {
        std::string value = knob.format(section);
        if (value != knob.format(defaults) ||
            std::find(always.begin(), always.end(), knob.key) !=
                always.end())
            out.entries.push_back({knob.key, std::move(value), 0});
    }
    if (!out.entries.empty())
        doc.sections.push_back(std::move(out));
}

/** A section whose only (repeatable) key is @p key; returns values. */
std::vector<std::string>
listSection(const ScenarioSection &section, const char *key)
{
    std::vector<std::string> values;
    for (const ScenarioEntry &entry : section.entries) {
        if (entry.key != key)
            badEntry(entry, "unknown key \"" + entry.key + "\" in [" +
                                section.name + "] (only \"" + key +
                                " = ...\" entries are allowed)");
        if (entry.value.empty())
            badEntry(entry, std::string(key) + " entry is empty");
        values.push_back(entry.value);
    }
    return values;
}

} // namespace

AxisExpression
parseAxisExpression(const std::string &text, const char *what)
{
    AxisExpression expression;
    bool seen_knob = false;
    for (const std::string &token : tokenize(text, what)) {
        const auto equals = token.find('=');
        if (equals == std::string::npos) {
            if (seen_knob)
                badExpression(what, text,
                              "name token \"" + token +
                                  "\" after the first knob");
            if (!expression.name.empty())
                expression.name += " ";
            expression.name += token;
            continue;
        }
        const std::string key = token.substr(0, equals);
        if (!validScenarioName(key))
            badExpression(what, text,
                          "bad knob key \"" + key +
                              "\" (lowercase [a-z0-9_] only)");
        expression.knobs.emplace_back(key, token.substr(equals + 1));
        seen_knob = true;
    }
    if (expression.name.empty())
        badExpression(what, text, "missing name");
    return expression;
}

std::string
canonicalExpression(const AxisExpression &expression)
{
    std::ostringstream os;
    os << expression.name;
    for (const auto &[key, value] : expression.knobs)
        os << " " << key << "=" << quoteValue(value);
    return os.str();
}

CampaignSpec
ScenarioSpec::resolve() const
{
    if (workloads.empty())
        badScenario("\"" + name + "\" has no [workloads] entries");
    if (configs.empty())
        badScenario("\"" + name + "\" has no [configs] entries");

    CampaignSpec spec;
    spec.name = name;
    spec.base.requests = requests;
    spec.base.warmup_requests = warmup_requests;
    spec.base.seed = seed;
    spec.campaign_seed = campaign_seed;
    spec.seed_policy = seed_policy;
    spec.seeds = seeds;

    // Threads each workload axis entry drives, in spec.workloads order.
    std::vector<std::size_t> workload_threads;
    const auto addWorkload =
        [&spec, &workload_threads](
            const std::string &workload_name,
            const std::vector<workload::WorkloadKnob> &knobs) {
            AxisExpression canonical{workload_name, knobs};
            if (trace::isTraceExpression(workload_name)) {
                // A trace: axis validates its file eagerly and takes
                // its synthetic flag from the trace header; the label
                // knob lets a replay axis reproduce the fingerprint
                // (and sink bytes) of the generator axis it was
                // captured from.
                trace::ReplayAxis axis =
                    trace::replayAxis(workload_name, knobs);
                spec.workloads.push_back(WorkloadSpec{
                    axis.label.empty()
                        ? canonicalExpression(canonical)
                        : axis.label,
                    axis.synthetic, std::move(axis.make)});
                workload_threads.push_back(axis.threads);
                return;
            }
            workload::RegistryAxis axis =
                workload::registryAxis(workload_name, knobs);
            spec.workloads.push_back(WorkloadSpec{
                canonicalExpression(canonical), axis.synthetic,
                std::move(axis.make)});
            workload_threads.push_back(axis.threads);
        };
    for (const std::string &text : workloads) {
        const AxisExpression expr =
            parseAxisExpression(text, "workload");
        if (expr.name == "all") {
            // The alias means the Table-3 suite; sharing-pattern
            // generators are addressable by name only, so historical
            // "all" sweeps stay bit-compatible.
            for (const workload::RegistryEntry &registered :
                 workload::registry()) {
                if (!registered.sharing)
                    addWorkload(registered.name, expr.knobs);
            }
        } else {
            addWorkload(expr.name, expr.knobs);
        }
    }

    const auto addConfig =
        [&spec](const std::string &config_name,
                const std::vector<std::pair<std::string, std::string>>
                    &knobs) {
            core::SystemConfig config = core::namedConfig(config_name);
            bool labelled = false;
            for (const auto &[key, value] : knobs) {
                core::applyConfigKnob(config, key, value);
                labelled = labelled || key == "label";
            }
            if (!knobs.empty() && !labelled) {
                // Distinct knobbed variants of one base point must
                // not alias each other's axis label / fingerprint.
                config.label = canonicalExpression(
                    AxisExpression{config_name, knobs});
            }
            core::validateConfig(config);
            spec.configs.push_back(std::move(config));
        };
    for (const std::string &text : configs) {
        const AxisExpression expr = parseAxisExpression(text, "config");
        if (expr.name == "paper") {
            for (const std::string &paper_name :
                 core::paperConfigNames())
                addConfig(paper_name, expr.knobs);
        } else {
            addConfig(expr.name, expr.knobs);
        }
    }

    for (const std::string &text : overrides) {
        const AxisExpression expr =
            parseAxisExpression(text, "override");
        // Validate every knob eagerly, against the base parameters,
        // so a bad expression dies at resolve time rather than on a
        // worker thread mid-campaign.
        core::SimParams scratch = spec.base;
        for (const auto &[key, value] : expr.knobs)
            core::applySimParamsKnob(scratch, key, value);
        ParamsOverride override_spec;
        override_spec.label = expr.name;
        if (!expr.knobs.empty()) {
            override_spec.apply = [knobs = expr.knobs](
                                      core::SimParams &params) {
                for (const auto &[key, value] : knobs)
                    core::applySimParamsKnob(params, key, value);
            };
        }
        spec.overrides.push_back(std::move(override_spec));
    }

    // Reject duplicate axis entries now — "a scenario that parses is
    // a scenario that runs", so a collision must not wait for the
    // runner's expand() after the job has been distributed.
    validateAxisLabels(spec);
    // Likewise every (workload, config) cell must bind one workload
    // thread per system thread; counted from the resolved knobs, with
    // no workload built.
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        for (const core::SystemConfig &config : spec.configs) {
            if (workload_threads[w] != config.threads()) {
                badScenario(
                    "workload \"" + spec.workloads[w].name +
                    "\" drives " + std::to_string(workload_threads[w]) +
                    " threads, but config \"" + config.name() +
                    "\" has " + std::to_string(config.threads()) +
                    " (clusters x threads_per_cluster)");
            }
        }
    }

    return spec;
}

ScenarioSpec
parseScenario(std::string_view text)
{
    const ScenarioDoc doc = parseScenarioText(text);
    ScenarioSpec spec;

    for (const ScenarioSection &section : doc.sections) {
        if (section.name != "scenario" &&
            section.name != "workloads" &&
            section.name != "configs" &&
            section.name != "overrides" &&
            section.name != "execution" &&
            section.name != "observability")
            badScenario(
                "line " + std::to_string(section.line) +
                ": unknown section [" + section.name +
                "] (known: scenario, workloads, configs, overrides, "
                "execution, observability)");
    }

    const ScenarioSection *header = doc.find("scenario");
    if (!header)
        badScenario("missing [scenario] section");
    parseSection(*header, scenarioKnobs(), spec);

    const ScenarioSection *workloads = doc.find("workloads");
    if (!workloads)
        badScenario("missing [workloads] section");
    spec.workloads = listSection(*workloads, "workload");
    if (spec.workloads.empty())
        badScenario("[workloads] has no \"workload = ...\" entries");

    const ScenarioSection *configs = doc.find("configs");
    if (!configs)
        badScenario("missing [configs] section");
    spec.configs = listSection(*configs, "config");
    if (spec.configs.empty())
        badScenario("[configs] has no \"config = ...\" entries");

    if (const ScenarioSection *overrides = doc.find("overrides"))
        spec.overrides = listSection(*overrides, "override");

    if (const ScenarioSection *execution = doc.find("execution")) {
        parseSection(*execution, executionKnobs(), spec.execution);
        const ScenarioEntry *calibration = execution->find("calibration");
        if (calibration && !calibration->value.empty() &&
            spec.execution.executor != "model")
            badEntry(*calibration, "calibration needs executor = model");
    }

    if (const ScenarioSection *observability =
            doc.find("observability")) {
        parseSection(*observability, observabilityKnobs(),
                     spec.observability);
        if ((spec.observability.enabled() ||
             spec.observability.heartbeat) &&
            spec.execution.executor == "model")
            badScenario(
                "line " + std::to_string(observability->line) +
                ": [observability] requires executor = simulate (the "
                "analytical model has no event stream to observe)");
    }

    // Surface resolution errors (unknown workload/config/knob) at
    // parse time: a scenario that parses is a scenario that runs.
    spec.resolve();
    return spec;
}

ScenarioSpec
loadScenarioFile(const std::string &path)
{
    std::ifstream stream(path);
    if (!stream)
        badScenario("cannot read scenario file \"" + path + "\"");
    std::ostringstream text;
    text << stream.rdbuf();
    return parseScenario(text.str());
}

std::span<const core::Knob<ScenarioSpec>>
scenarioKnobs()
{
    return scenarioKnobTable;
}

std::span<const core::Knob<ScenarioExecution>>
executionKnobs()
{
    return executionKnobTable;
}

std::span<const core::Knob<obs::CampaignObsOptions>>
observabilityKnobs()
{
    return observabilityKnobTable;
}

std::string
serializeScenario(const ScenarioSpec &spec)
{
    ScenarioDoc doc;
    formatSection(doc, "scenario", scenarioKnobs(), spec,
                  {"name", "requests", "seed_policy"});
    const auto addList = [&doc](const char *name, const char *key,
                                const std::vector<std::string> &values) {
        ScenarioSection section{name, {}, 0};
        for (const std::string &value : values)
            section.entries.push_back({key, value, 0});
        doc.sections.push_back(std::move(section));
    };
    addList("workloads", "workload", spec.workloads);
    addList("configs", "config", spec.configs);
    if (!spec.overrides.empty())
        addList("overrides", "override", spec.overrides);
    formatSection(doc, "execution", executionKnobs(), spec.execution);
    formatSection(doc, "observability", observabilityKnobs(),
                  spec.observability);
    return serializeScenarioDoc(doc);
}

} // namespace corona::campaign
