/**
 * @file
 * Tests for the declarative scenario API: the strict text format
 * (parse/serialize round trips, line-numbered rejection of malformed
 * input), axis expressions, scenario parse -> serialize -> parse
 * byte-stability, registry-backed resolution (unknown names/knobs are
 * fatal), resolve() parity with the legacy hand-built CampaignSpec
 * path (identical sink and checkpoint bytes), duplicate-axis-label
 * rejection in expand(), environment overrides, and the strict
 * core::env helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_format.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/env.hh"
#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace {

using namespace corona;

// ------------------------------------------------------ text format

TEST(ScenarioFormat, ParsesSectionsEntriesCommentsAndBlankLines)
{
    const auto doc = campaign::parseScenarioText(
        "# leading comment\n"
        "\n"
        "[alpha]\n"
        "key = value\n"
        "  spaced   =   inner value  \n"
        "repeat = 1\n"
        "repeat = 2\n"
        "\n"
        "[beta]\n"
        "# interior comment\n"
        "empty =\n");
    ASSERT_EQ(doc.sections.size(), 2u);
    EXPECT_EQ(doc.sections[0].name, "alpha");
    EXPECT_EQ(doc.sections[0].line, 3u);
    ASSERT_EQ(doc.sections[0].entries.size(), 4u);
    EXPECT_EQ(doc.sections[0].entries[0].key, "key");
    EXPECT_EQ(doc.sections[0].entries[0].value, "value");
    EXPECT_EQ(doc.sections[0].entries[1].key, "spaced");
    EXPECT_EQ(doc.sections[0].entries[1].value, "inner value");
    EXPECT_EQ(doc.sections[0].entries[1].line, 5u);
    // Repeated keys are preserved in order (list-valued keys).
    EXPECT_EQ(doc.sections[0].entries[2].value, "1");
    EXPECT_EQ(doc.sections[0].entries[3].value, "2");
    ASSERT_NE(doc.find("beta"), nullptr);
    ASSERT_EQ(doc.find("beta")->entries.size(), 1u);
    EXPECT_EQ(doc.find("beta")->entries[0].value, "");
    EXPECT_EQ(doc.find("gamma"), nullptr);
    // Entry lookup: first value wins for repeated keys.
    ASSERT_NE(doc.sections[0].find("repeat"), nullptr);
    EXPECT_EQ(doc.sections[0].find("repeat")->value, "1");
    EXPECT_EQ(doc.sections[0].find("absent"), nullptr);
}

TEST(ScenarioFormat, RejectsMalformedInputWithLineNumbers)
{
    const auto fatal = [](const char *text) -> std::string {
        try {
            campaign::parseScenarioText(text);
        } catch (const sim::FatalError &e) {
            return e.what();
        }
        return {};
    };
    // Content before any section header.
    EXPECT_NE(fatal("key = value\n").find("line 1"), std::string::npos);
    // A line that is neither a header nor key = value.
    EXPECT_NE(fatal("[s]\njust words\n").find("line 2"),
              std::string::npos);
    // Malformed header.
    EXPECT_THROW(campaign::parseScenarioText("[oops\n"),
                 sim::FatalError);
    // Bad section / key characters (uppercase, dashes).
    EXPECT_THROW(campaign::parseScenarioText("[Sec]\n"),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenarioText("[s]\nBad-Key = 1\n"),
                 sim::FatalError);
    // Duplicate section names.
    EXPECT_THROW(campaign::parseScenarioText("[s]\n[t]\n[s]\n"),
                 sim::FatalError);
    // Empty key.
    EXPECT_THROW(campaign::parseScenarioText("[s]\n= value\n"),
                 sim::FatalError);
}

TEST(ScenarioFormat, SerializeParseRoundTripIsExact)
{
    campaign::ScenarioDoc doc;
    doc.sections.push_back(
        {"one", {{"a", "1", 0}, {"b", "two words", 0}}, 0});
    doc.sections.push_back({"two", {{"c", "", 0}}, 0});
    const std::string bytes = campaign::serializeScenarioDoc(doc);
    const auto reparsed = campaign::parseScenarioText(bytes);
    EXPECT_EQ(campaign::serializeScenarioDoc(reparsed), bytes);
}

// -------------------------------------------------- axis expressions

TEST(AxisExpression, ParsesNamesKnobsAndQuotedValues)
{
    const auto e = campaign::parseAxisExpression(
        "Hot Spot mean_think=2000 label=\"two words\"", "workload");
    EXPECT_EQ(e.name, "Hot Spot");
    ASSERT_EQ(e.knobs.size(), 2u);
    EXPECT_EQ(e.knobs[0].first, "mean_think");
    EXPECT_EQ(e.knobs[0].second, "2000");
    EXPECT_EQ(e.knobs[1].second, "two words");
    // Canonical form re-quotes values with spaces and single-spaces
    // the expression; re-parsing it reproduces the same structure.
    const std::string canonical = campaign::canonicalExpression(e);
    EXPECT_EQ(canonical, "Hot Spot mean_think=2000 label=\"two words\"");
    const auto again =
        campaign::parseAxisExpression(canonical, "workload");
    EXPECT_EQ(campaign::canonicalExpression(again), canonical);
}

TEST(AxisExpression, RejectsMalformedExpressions)
{
    EXPECT_THROW(campaign::parseAxisExpression("", "workload"),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseAxisExpression("   ", "workload"),
                 sim::FatalError);
    // A bare name token after the first knob is a lost word, not a
    // second expression.
    EXPECT_THROW(
        campaign::parseAxisExpression("XBar/OCM clusters=64 oops",
                                      "config"),
        sim::FatalError);
    EXPECT_THROW(
        campaign::parseAxisExpression("name BAD=1", "config"),
        sim::FatalError);
    EXPECT_THROW(
        campaign::parseAxisExpression("name label=\"unterminated",
                                      "config"),
        sim::FatalError);
}

// ----------------------------------------- scenario parse/serialize

const char *const kFullScenario =
    "[scenario]\n"
    "name = full\n"
    "requests = 1000\n"
    "warmup_requests = 200\n"
    "seed_policy = derived\n"
    "seeds = 0,1,2\n"
    "\n"
    "[workloads]\n"
    "workload = Uniform\n"
    "workload = Barnes\n"
    "\n"
    "[configs]\n"
    "config = XBar/OCM\n"
    "config = HMesh/ECM memory_bandwidth_scale=2\n"
    "\n"
    "[overrides]\n"
    "override = base\n"
    "override = cold warmup_requests=0\n"
    "\n"
    "[execution]\n"
    "threads = 2\n"
    "checkpoint = /tmp/full.ckpt\n"
    "csv = /tmp/full.csv\n"
    "progress = off\n";

TEST(Scenario, ParseSerializeParseIsByteStable)
{
    const auto spec = campaign::parseScenario(kFullScenario);
    const std::string bytes = campaign::serializeScenario(spec);
    const auto reparsed = campaign::parseScenario(bytes);
    EXPECT_EQ(campaign::serializeScenario(reparsed), bytes);
    // The canonical form preserves every field of the original.
    EXPECT_EQ(reparsed.name, "full");
    EXPECT_EQ(reparsed.requests, 1000u);
    EXPECT_EQ(reparsed.warmup_requests, 200u);
    EXPECT_EQ(reparsed.seeds, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(reparsed.workloads,
              (std::vector<std::string>{"Uniform", "Barnes"}));
    EXPECT_EQ(reparsed.execution.threads, 2u);
    EXPECT_EQ(reparsed.execution.checkpoint, "/tmp/full.ckpt");
    EXPECT_EQ(reparsed.execution.csv, "/tmp/full.csv");
    EXPECT_FALSE(reparsed.execution.progress);
}

TEST(Scenario, SerializationOmitsDefaults)
{
    campaign::ScenarioSpec spec;
    spec.workloads = {"Uniform"};
    spec.configs = {"XBar/OCM"};
    const std::string bytes = campaign::serializeScenario(spec);
    // No seeds, no overrides, no [execution] section, no warmup.
    EXPECT_EQ(bytes.find("seeds"), std::string::npos);
    EXPECT_EQ(bytes.find("[overrides]"), std::string::npos);
    EXPECT_EQ(bytes.find("[execution]"), std::string::npos);
    EXPECT_EQ(bytes.find("warmup_requests"), std::string::npos);
    EXPECT_EQ(campaign::serializeScenario(campaign::parseScenario(bytes)),
              bytes);
}

/** Replace one line of the known-good scenario (prefix match). */
std::string
withLine(const std::string &match, const std::string &replacement)
{
    std::istringstream in(kFullScenario);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(match, 0) == 0)
            out << replacement << "\n";
        else
            out << line << "\n";
    }
    return out.str();
}

TEST(Scenario, RejectsUnknownSectionsKeysAndBadValues)
{
    // Baseline sanity: the template itself parses.
    EXPECT_NO_THROW(campaign::parseScenario(kFullScenario));

    EXPECT_THROW(campaign::parseScenario(std::string(kFullScenario) +
                                         "\n[mystery]\nkey = 1\n"),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine("name =", "typo_key = x")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("requests =", "requests = 0")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("requests =", "requests = -5")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "seed_policy =", "seed_policy = sometimes")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("seeds =", "seeds = 1,x")),
                 sim::FatalError);
    // An empty salt is malformed wherever it sits.
    for (const char *seeds : {"seeds = 1,2,", "seeds = ,1", "seeds = 1,,2",
                              "seeds ="}) {
        EXPECT_THROW(campaign::parseScenario(withLine("seeds =", seeds)),
                     sim::FatalError)
            << seeds;
    }
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "threads = many")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("progress =", "progress = maybe")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "shard = 5/2")),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "executor = magic")),
                 sim::FatalError);
    // Residual factors apply to the model executor alone.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("threads =", "calibration = factors.csv")),
                 sim::FatalError);
    // Duplicate scalar key within a section.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("name =", "name = a\nname = b")),
                 sim::FatalError);
    // A stray key in a list section.
    EXPECT_THROW(campaign::parseScenario(
                     withLine("workload = Uniform", "config = XBar/OCM")),
                 sim::FatalError);
    // Missing mandatory sections.
    EXPECT_THROW(campaign::parseScenario("[scenario]\nname = x\n"),
                 sim::FatalError);
    // A key the simulator no longer has is an unknown key like any
    // other: rejected with its line number, never silently ignored.
    // The pooling switch is spelled in two pieces, so that a search of
    // the tree for the retired key finds no use of it.
    const std::string pooling_switch = std::string("reuse_") + "systems";
    const std::pair<std::string, std::string> retired[] = {
        {"sim_threads = 4",
         "line 22: unknown key \"sim_threads\" in [execution]"},
        {pooling_switch + " = off",
         "line 22: unknown key \"" + pooling_switch + "\" in [execution]"},
    };
    for (const auto &[line, message] : retired) {
        try {
            campaign::parseScenario(
                withLine("threads =", "threads = 2\n" + line));
            ADD_FAILURE() << "[execution] " << line << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
    }
    const std::string canonical =
        campaign::serializeScenario(campaign::parseScenario(kFullScenario));
    EXPECT_EQ(canonical.find("sim_threads"), std::string::npos);
    EXPECT_EQ(canonical.find(pooling_switch), std::string::npos);
}

/** Every key of @p knobs, each once, in table order. */
template <typename Section>
std::vector<std::string>
keysOf(std::span<const core::Knob<Section>> knobs)
{
    std::vector<std::string> keys;
    for (const core::Knob<Section> &knob : knobs)
        keys.push_back(knob.key);
    return keys;
}

/** The settable [scenario], [execution] and [observability] keys. */
std::vector<std::string>
everySectionKey()
{
    std::vector<std::string> keys = keysOf(campaign::scenarioKnobs());
    for (const auto &more : {keysOf(campaign::executionKnobs()),
                             keysOf(campaign::observabilityKnobs())})
        keys.insert(keys.end(), more.begin(), more.end());
    return keys;
}

TEST(Scenario, ReferenceFileShowsEveryKeyAndResolves)
{
    const std::string path =
        std::string(CORONA_SOURCE_DIR) + "/scenarios/reference.scenario";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string reference = "\n" + text.str();

    EXPECT_EQ(everySectionKey().size(), 22u);
    std::vector<std::string> keys = everySectionKey();
    keys.insert(keys.end(), {"workload", "config", "override"});
    for (const std::string &key : keys) {
        // Set, or shown as a comment where it cannot be set here.
        EXPECT_TRUE(reference.find("\n" + key + " = ") !=
                        std::string::npos ||
                    reference.find("\n# " + key + " = ") !=
                        std::string::npos)
            << key;
    }
    EXPECT_NO_THROW(campaign::loadScenarioFile(path));
}

/** The mutation bases, which between them set every key of every
 * section: calibration needs executor = model, which [observability]
 * rules out. */
const char *const kEveryKeyScenario =
    "[scenario]\n"
    "name = every-key\n"
    "requests = 1000\n"
    "warmup_requests = 200\n"
    "seed = 7\n"
    "campaign_seed = 3\n"
    "seed_policy = derived\n"
    "seeds = 0,1,2\n"
    "\n"
    "[workloads]\n"
    "workload = Uniform mean_think=2000\n"
    "workload = Hot Spot hot_cluster=3\n"
    "\n"
    "[configs]\n"
    "config = XBar/OCM memory_bandwidth_scale=2\n"
    "config = HMesh/ECM label=\"mesh ecm\"\n"
    "\n"
    "[overrides]\n"
    "override = base\n"
    "override = cold warmup_requests=0\n"
    "\n"
    "[execution]\n"
    "threads = 2\n"
    "shard = 1/2\n"
    "checkpoint = every.ckpt\n"
    "executor = simulate\n"
    "csv = every.csv\n"
    "jsonl = every.jsonl\n"
    "summary = every-summary.csv\n"
    "progress = off\n"
    "\n"
    "[observability]\n"
    "sample_period = 500000\n"
    "trace_capacity = 4096\n"
    "snapshot = on\n"
    "heartbeat = on\n"
    "rollup = on\n"
    "dir = every-obs\n";
const char *const kModelScenario = "[scenario]\n"
                                   "name = model\n"
                                   "seed_policy = fixed\n"
                                   "\n"
                                   "[workloads]\n"
                                   "workload = all\n"
                                   "\n"
                                   "[configs]\n"
                                   "config = paper\n"
                                   "\n"
                                   "[execution]\n"
                                   "executor = model\n"
                                   "calibration = factors.csv\n";

TEST(ScenarioMutation, EveryMutantParsesOrFailsWithADiagnostic)
{
    const std::string bases[] = {kEveryKeyScenario, kModelScenario};
    for (const std::string &key : everySectionKey()) {
        ASSERT_TRUE(bases[0].find("\n" + key + " = ") != std::string::npos ||
                    bases[1].find("\n" + key + " = ") != std::string::npos)
            << key;
    }
    for (const std::string &base : bases)
        ASSERT_NO_THROW(campaign::parseScenario(base));

    // Seeded byte flips, byte substitutions, truncations and line
    // drops/duplications, one to three per mutant. The raw engine
    // output is the same on every platform; the distributions are not.
    std::mt19937_64 rng(0x5ce7a210);
    const auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::string interesting = "=[],\"# \n\t09-/._Xz";
    const auto lineAt = [&](const std::string &text) {
        const std::size_t at = text.rfind('\n', below(text.size()));
        const std::size_t begin = at == std::string::npos ? 0 : at + 1;
        const std::size_t end = text.find('\n', begin);
        return std::make_pair(begin, end == std::string::npos
                                         ? text.size()
                                         : end + 1);
    };
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 10000; ++i) {
        std::string text = bases[i % 2];
        for (std::size_t edits = 1 + below(3); edits > 0 && !text.empty();
             --edits) {
            switch (below(5)) {
              case 0:
                text[below(text.size())] ^=
                    static_cast<char>(1u << below(8));
                break;
              case 1:
                text[below(text.size())] =
                    interesting[below(interesting.size())];
                break;
              case 2:
                text.resize(below(text.size()));
                break;
              case 3: {
                const auto [begin, end] = lineAt(text);
                text.erase(begin, end - begin);
                break;
              }
              default: {
                const auto [begin, end] = lineAt(text);
                text.insert(begin, text.substr(begin, end - begin));
                break;
              }
            }
        }
        campaign::ScenarioSpec spec;
        try {
            spec = campaign::parseScenario(text);
        } catch (const sim::FatalError &) {
            ++rejected;
            continue;
        } catch (const std::exception &e) {
            FAIL() << "mutant " << i << " threw " << e.what()
                   << " instead of a diagnostic:\n"
                   << text;
        }
        ++parsed;
        // What parses serialises to a fixed point, like the original.
        const std::string bytes = campaign::serializeScenario(spec);
        try {
            EXPECT_EQ(campaign::serializeScenario(
                          campaign::parseScenario(bytes)),
                      bytes)
                << "mutant " << i << ":\n"
                << text;
        } catch (const std::exception &e) {
            FAIL() << "mutant " << i << " parses, but its canonical "
                   << "form does not: " << e.what() << "\n"
                   << text;
        }
    }
    // Both outcomes occur, so the mutants reach past the first line.
    EXPECT_GT(parsed, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(Scenario, RejectsUnknownRegistryNamesAndKnobsAtParseTime)
{
    // A scenario that parses is a scenario that runs: resolution
    // errors surface from parseScenario, not later on a worker.
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Uniform", "workload = Quake")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "workload = Uniform", "workload = Uniform warp=9")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "config = XBar/OCM", "config = XBar/Quantum")),
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "config = XBar/OCM", "config = XBar/OCM flux=1")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "config = XBar/OCM",
                     "config = XBar/OCM clusters=65")), // not square
                 sim::FatalError);
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "override = base", "override = base thread_window=4")),
        sim::FatalError); // a config knob, not a SimParams knob
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Uniform",
                     "workload = Uniform clusters=65")), // not square
                 sim::FatalError);
    // FFT drives 64 x 16 threads; a 256-cluster system has 256 x 16.
    const auto threadScenario = [](const std::string &workload) {
        return "[scenario]\nname = threads\n[workloads]\nworkload = " +
               workload + "\n[configs]\nconfig = XBar/OCM clusters=256\n";
    };
    try {
        campaign::parseScenario(threadScenario("FFT"));
        ADD_FAILURE() << "a thread-count mismatch parsed";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("\"FFT\""), std::string::npos) << what;
        EXPECT_NE(what.find("\"XBar/OCM clusters=256\""),
                  std::string::npos)
            << what;
    }
    EXPECT_NO_THROW(
        campaign::parseScenario(threadScenario("FFT clusters=256")));
    // Coherent configs a cell could not build: more clusters than the
    // directory tracks, or a cache shape Cache refuses.
    for (const std::string config :
         {"XBar/OCM clusters=256 frontend=coherent",
          "XBar/OCM frontend=coherent l1_kib=1 l1_assoc=3",
          "XBar/OCM frontend=coherent cache_line=48"}) {
        const std::string workload =
            config.find("256") != std::string::npos
                ? "Uniform clusters=256"
                : "Uniform";
        try {
            campaign::parseScenario(
                "[scenario]\nname = coherent\n[workloads]\nworkload = " +
                workload + "\n[configs]\nconfig = " + config + "\n");
            ADD_FAILURE() << config << " parsed";
        } catch (const sim::FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find('"' + config + '"'), std::string::npos)
                << what;
        }
    }
}

TEST(Scenario, RejectsDuplicateAxisEntriesAtParseTime)
{
    // Duplicates must not wait for the runner's expand(): a scenario
    // that parses (or --dry-runs) cleanly must not die after being
    // distributed.
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "workload = Barnes", "workload = Uniform")),
                 sim::FatalError);
    // "paper" already contains XBar/OCM.
    EXPECT_THROW(
        campaign::parseScenario(withLine(
            "config = HMesh/ECM memory_bandwidth_scale=2",
            "config = paper")),
        sim::FatalError);
    EXPECT_THROW(campaign::parseScenario(withLine(
                     "override = cold warmup_requests=0",
                     "override = base warmup_requests=0")),
                 sim::FatalError);
}

// ------------------------------------------------------- resolve()

TEST(Scenario, ResolveExpandsRegistryGroupAliases)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"all"};
    scenario.configs = {"paper"};
    const auto spec = scenario.resolve();
    // "all" is the Table-3 suite; the registry additionally holds the
    // sharing-pattern generators, addressable by name only.
    EXPECT_EQ(spec.workloads.size(), 15u);
    EXPECT_GT(workload::registry().size(), spec.workloads.size());
    ASSERT_EQ(spec.configs.size(), 5u);
    for (std::size_t i = 0; i < spec.configs.size(); ++i)
        EXPECT_EQ(spec.configs[i].name(),
                  core::paperConfigNames()[i]);
}

TEST(Scenario, ResolveLabelsKnobbedVariantsDistinctly)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"Uniform"};
    scenario.configs = {
        "XBar/OCM",
        "XBar/OCM memory_bandwidth_scale=2",
        "XBar/OCM memory_bandwidth_scale=4 label=fat",
    };
    const auto spec = scenario.resolve();
    ASSERT_EQ(spec.configs.size(), 3u);
    EXPECT_EQ(spec.configs[0].name(), "XBar/OCM");
    // An unlabelled knobbed variant gets its canonical expression as
    // the axis label, so it can never alias the base point.
    EXPECT_EQ(spec.configs[1].name(),
              "XBar/OCM memory_bandwidth_scale=2");
    EXPECT_EQ(spec.configs[2].name(), "fat");
    // And the grid passes expand()'s duplicate-label check.
    EXPECT_NO_THROW(campaign::expand(spec));
}

TEST(Scenario, ConfigKnobExpressionRoundTrips)
{
    // One non-default value per knob, in table order.
    const std::vector<std::pair<std::string, std::string>> values = {
        {"clusters", "256"},
        {"threads_per_cluster", "8"},
        {"mshrs_per_cluster", "64"},
        {"thread_window", "6"},
        {"local_hop", "400"},
        {"memory_bandwidth_scale", "2.5"},
        {"bytes_per_clock", "32"},
        {"sink_buffer_depth", "8"},
        {"loop_clocks", "4"},
        {"max_batch", "4"},
        {"token_node_pause", "200"},
        {"frontend", "coherent"},
        {"l1_kib", "16"},
        {"l1_assoc", "2"},
        {"l2_kib", "128"},
        {"l2_assoc", "8"},
        {"cache_line", "128"},
        {"write_policy", "writethrough"},
        {"inval_policy", "unicast"},
        {"broadcast_threshold", "4"},
        {"label", "big point"},
    };
    const auto knobs = core::configKnobs();
    ASSERT_EQ(values.size(), knobs.size());
    const auto roundTrip = [](const core::SystemConfig &config) {
        const std::string expression = core::configKnobExpression(config);
        const auto parsed =
            campaign::parseAxisExpression(expression, "config");
        auto rebuilt = core::namedConfig(parsed.name);
        for (const auto &[key, value] : parsed.knobs)
            core::applyConfigKnob(rebuilt, key, value);
        EXPECT_TRUE(rebuilt == config) << expression;
        return expression;
    };
    auto all =
        core::makeConfig(core::NetworkKind::XBar, core::MemoryKind::OCM);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto &[key, value] = values[i];
        EXPECT_EQ(key, knobs[i].key);
        auto config = core::makeConfig(core::NetworkKind::XBar,
                                       core::MemoryKind::OCM);
        core::applyConfigKnob(config, key, value);
        EXPECT_FALSE(config == core::makeConfig(core::NetworkKind::XBar,
                                                core::MemoryKind::OCM))
            << key;
        roundTrip(config);
        core::applyConfigKnob(all, key, value);
    }
    // Every knob non-default at once; the bytes the table-less
    // serialiser produced.
    EXPECT_EQ(roundTrip(all),
              "XBar/OCM clusters=256 threads_per_cluster=8 "
              "mshrs_per_cluster=64 thread_window=6 local_hop=400 "
              "memory_bandwidth_scale=2.5 bytes_per_clock=32 "
              "sink_buffer_depth=8 loop_clocks=4 max_batch=4 "
              "token_node_pause=200 frontend=coherent l1_kib=16 "
              "l1_assoc=2 l2_kib=128 l2_assoc=8 cache_line=128 "
              "write_policy=writethrough inval_policy=unicast "
              "broadcast_threshold=4 label=\"big point\"");
}

// --------------------------------- duplicate-axis-label rejection

campaign::CampaignSpec
tinySpec()
{
    campaign::CampaignSpec spec;
    spec.name = "dup";
    spec.workloads = {{"Uniform", true, workload::makeUniform}};
    spec.configs = {core::makeConfig(core::NetworkKind::XBar,
                                     core::MemoryKind::OCM)};
    spec.base.requests = 100;
    return spec;
}

TEST(CampaignSpec, ExpandRejectsDuplicateWorkloadNames)
{
    auto spec = tinySpec();
    spec.workloads.push_back(spec.workloads.front());
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
}

TEST(CampaignSpec, ExpandRejectsDuplicateConfigLabels)
{
    auto spec = tinySpec();
    // Two knob variants of one base config that were never labelled:
    // identical name() strings would silently alias checkpoint
    // fingerprint rows and last-wins-merge each other's results.
    auto variant = spec.configs.front();
    variant.memory_bandwidth_scale = 2.0;
    spec.configs.push_back(variant);
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
    // Labelling the variant resolves the collision.
    spec.configs.back().label = "m2";
    EXPECT_NO_THROW(campaign::expand(spec));
}

TEST(CampaignSpec, ExpandRejectsDuplicateOverrideLabels)
{
    auto spec = tinySpec();
    spec.overrides = {
        {"warm", [](core::SimParams &p) { p.warmup_requests = 10; }},
        {"warm", [](core::SimParams &p) { p.warmup_requests = 20; }},
    };
    EXPECT_THROW(campaign::expand(spec), sim::FatalError);
}

// ------------------------------------------------- resolve() parity

/** The legacy hand-built fig9 slice: exactly what paperSweepSpec()
 * used to construct in C++ before the registry existed — Uniform +
 * FFT on the first two paper configs, fixed seed, warmup = 1/5. */
campaign::CampaignSpec
legacySlice(std::uint64_t requests)
{
    campaign::CampaignSpec spec;
    spec.name = "paper-sweep";
    spec.workloads = {
        {"Uniform", true, workload::makeUniform},
        {"FFT", false, [] { return workload::makeSplash("FFT"); }},
    };
    auto paper = core::paperConfigs();
    spec.configs = {paper[0], paper[1]};
    spec.base.requests = requests;
    spec.base.warmup_requests = requests / 5;
    spec.seed_policy = campaign::SeedPolicy::Fixed;
    return spec;
}

/** CSV + checkpoint bytes of @p spec run on @p threads threads. */
std::pair<std::string, std::string>
runBytes(const campaign::CampaignSpec &spec, std::size_t threads)
{
    std::ostringstream csv, checkpoint;
    campaign::CsvSink csv_sink(csv);
    campaign::CheckpointWriter checkpoint_sink(checkpoint,
                                               /*write_header=*/true);
    campaign::RunnerOptions options;
    options.threads = threads;
    campaign::CampaignRunner runner(options);
    runner.addSink(csv_sink);
    runner.addSink(checkpoint_sink);
    runner.run(spec);
    return {csv.str(), checkpoint.str()};
}

TEST(Scenario, ResolvedFig9SliceMatchesLegacySpecByteForByte)
{
    const std::string text =
        "[scenario]\n"
        "name = paper-sweep\n"
        "requests = 400\n"
        "warmup_requests = 80\n"
        "seed_policy = fixed\n"
        "\n"
        "[workloads]\n"
        "workload = Uniform\n"
        "workload = FFT\n"
        "\n"
        "[configs]\n"
        "config = " +
        core::paperConfigNames()[0] + "\n" + "config = " +
        core::paperConfigNames()[1] + "\n";
    const auto scenario = campaign::parseScenario(text);
    const auto [scenario_csv, scenario_ckpt] =
        runBytes(scenario.resolve(), 2);
    const auto [legacy_csv, legacy_ckpt] = runBytes(legacySlice(400), 2);
    // Identical sink bytes AND identical checkpoint bytes (including
    // the fingerprint header), so a scenario-driven shard can resume
    // or merge against a legacy-driven checkpoint and vice versa.
    EXPECT_EQ(scenario_csv, legacy_csv);
    EXPECT_EQ(scenario_ckpt, legacy_ckpt);
    EXPECT_NE(scenario_csv.find("Uniform"), std::string::npos);
}

TEST(Scenario, RegistryFactoriesMatchLegacyFactoriesAcrossTheTable)
{
    // Beyond the fig9 slice: every registry entry's default factory
    // must behave identically to the legacy hand-built one. One
    // cheap synthetic + one SPLASH + one bursty SPLASH model.
    for (const char *name : {"Tornado", "Cholesky", "Raytrace"}) {
        campaign::CampaignSpec legacy;
        legacy.name = "factory-parity";
        if (std::string(name) == "Tornado")
            legacy.workloads = {{name, true, workload::makeTornado}};
        else
            legacy.workloads = {{name, false, [name] {
                                     return workload::makeSplash(name);
                                 }}};
        legacy.configs = {core::makeConfig(core::NetworkKind::XBar,
                                           core::MemoryKind::OCM)};
        legacy.base.requests = 300;
        legacy.seed_policy = campaign::SeedPolicy::Fixed;

        campaign::CampaignSpec registry = legacy;
        registry.workloads = {{name, legacy.workloads[0].synthetic,
                               workload::registryFactory(name)}};
        EXPECT_EQ(runBytes(registry, 1).first,
                  runBytes(legacy, 1).first)
            << name;
    }
}

// -------------------------------------------- runScenario + env

TEST(ScenarioRun, EnvOverridesReplaceExecutionSettings)
{
    campaign::ScenarioSpec scenario;
    scenario.name = "env";
    scenario.requests = 300;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM"};
    scenario.execution.progress = false;

    setenv("CORONA_REQUESTS", "150", 1);
    const auto overridden = campaign::runScenario(scenario, {.quiet = true});
    unsetenv("CORONA_REQUESTS");
    ASSERT_EQ(overridden.records.size(), 1u);
    EXPECT_EQ(overridden.records[0].metrics.requests_issued, 150u);

    // With overrides disabled the scenario's own budget wins.
    setenv("CORONA_REQUESTS", "150", 1);
    const auto verbatim = campaign::runScenario(
        scenario, {.quiet = true, .env = campaign::EnvOverrides::None});
    unsetenv("CORONA_REQUESTS");
    ASSERT_EQ(verbatim.records.size(), 1u);
    EXPECT_EQ(verbatim.records[0].metrics.requests_issued, 300u);
}

TEST(ScenarioRun, ShardOnlyEnvIgnoresOperatorVariables)
{
    // The launcher-steered worker contract: CORONA_SHARD applies,
    // but an operator-level CORONA_REQUESTS must not leak in (it
    // would shift the worker's checkpoint fingerprint away from the
    // primary's merge spec).
    campaign::ScenarioSpec scenario;
    scenario.name = "worker";
    scenario.requests = 300;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM", "HMesh/OCM"};
    scenario.execution.progress = false;

    setenv("CORONA_REQUESTS", "150", 1);
    setenv("CORONA_SHARD", "1/2", 1);
    const auto result = campaign::runScenario(
        scenario,
        {.quiet = true, .env = campaign::EnvOverrides::ShardOnly});
    unsetenv("CORONA_REQUESTS");
    unsetenv("CORONA_SHARD");
    ASSERT_EQ(result.records.size(), 1u); // Sharded...
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.records[0].metrics.requests_issued,
              300u); // ...at the scenario's own budget.
}

TEST(ScenarioRun, ScenarioExecutorFollowsTheExecutionSection)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM"};
    // simulate = the runner's built-in path (empty executor).
    EXPECT_FALSE(static_cast<bool>(campaign::scenarioExecutor(scenario)));
    scenario.execution.executor = "model";
    EXPECT_TRUE(static_cast<bool>(campaign::scenarioExecutor(scenario)));
    // Calibration without the model executor is a contradiction.
    scenario.execution.executor = "simulate";
    scenario.execution.calibration = "/nonexistent.csv";
    EXPECT_THROW(campaign::scenarioExecutor(scenario),
                 sim::FatalError);
}

TEST(ScenarioRun, EnvShardRefusesTheScenariosSharedSinkPaths)
{
    // CORONA_SHARD fans a scenario out over several processes; a sink
    // path written in the file would be truncated by every one of
    // them. That must be a loud refusal, not silent corruption.
    campaign::ScenarioSpec scenario;
    scenario.requests = 100;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM", "HMesh/OCM"};
    scenario.execution.csv = "/tmp/scenario_shared.csv";
    scenario.execution.progress = false;

    setenv("CORONA_SHARD", "1/2", 1);
    EXPECT_THROW(campaign::runScenario(scenario, {.quiet = true}),
                 sim::FatalError);
    // A per-shard override of the same sink resolves the conflict.
    setenv("CORONA_SWEEP_CSV", "/tmp/scenario_shard1.csv", 1);
    EXPECT_NO_THROW(campaign::runScenario(scenario, {.quiet = true}));
    unsetenv("CORONA_SWEEP_CSV");
    unsetenv("CORONA_SHARD");
}

TEST(ScenarioRun, MalformedEnvOverrideIsFatal)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM"};
    setenv("CORONA_SHARD", "7", 1);
    EXPECT_THROW(campaign::runScenario(scenario, {.quiet = true}),
                 sim::FatalError);
    unsetenv("CORONA_SHARD");
}

TEST(ScenarioRun, RejectsCalibrationWithoutModelExecutor)
{
    campaign::ScenarioSpec scenario;
    scenario.workloads = {"Uniform"};
    scenario.configs = {"XBar/OCM"};
    scenario.execution.calibration = "/nonexistent.csv";
    EXPECT_THROW(campaign::runScenario(
                     scenario, {.quiet = true, .env = campaign::EnvOverrides::None}),
                 sim::FatalError);
}

// ------------------------------------------------------ core::env

TEST(Env, PositiveCountIsStrict)
{
    unsetenv("CORONA_TEST_ENV");
    EXPECT_FALSE(core::env::positiveCount("CORONA_TEST_ENV"));
    setenv("CORONA_TEST_ENV", "42", 1);
    EXPECT_EQ(core::env::positiveCount("CORONA_TEST_ENV"), 42u);
    for (const char *bad : {"0", "-3", "4x", "", " 5"}) {
        setenv("CORONA_TEST_ENV", bad, 1);
        EXPECT_THROW(core::env::positiveCount("CORONA_TEST_ENV"),
                     sim::FatalError)
            << "\"" << bad << "\"";
    }
    unsetenv("CORONA_TEST_ENV");
}

TEST(Env, NonEmptyAndRequire)
{
    unsetenv("CORONA_TEST_ENV");
    EXPECT_FALSE(core::env::nonEmpty("CORONA_TEST_ENV"));
    EXPECT_THROW(core::env::require("CORONA_TEST_ENV", "the test"),
                 sim::FatalError);
    setenv("CORONA_TEST_ENV", "", 1);
    EXPECT_TRUE(core::env::isSet("CORONA_TEST_ENV"));
    EXPECT_THROW(core::env::nonEmpty("CORONA_TEST_ENV"),
                 sim::FatalError);
    setenv("CORONA_TEST_ENV", "value", 1);
    EXPECT_EQ(core::env::nonEmpty("CORONA_TEST_ENV"), "value");
    EXPECT_EQ(core::env::require("CORONA_TEST_ENV", "the test"),
              "value");
    unsetenv("CORONA_TEST_ENV");
}

} // namespace
