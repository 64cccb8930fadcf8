/**
 * @file
 * The repository benchmark driver.
 *
 * Runs one workload through the library's public API for a fixed time
 * and prints every metric by name with its unit, then one JSON result
 * line. Usage (normally through perfbench/run.py, which builds it):
 *
 *     perfbench-driver --workload paper-grid --seed 1 --seconds 20
 *                      --trace 0
 *
 * --trace 0 measures the end-to-end metrics: median set-up time over
 * several set-ups, then repeated passes for --seconds, each gated for
 * correctness. Campaign passes run through CampaignRunner exactly as
 * corona-run does: default engine, pooled systems, the scenario's
 * observability. --trace 1 alternates untraced and traced passes; a
 * traced pass still runs on the runner's own path, with timed workload
 * factories, a timed sink and the runner's heartbeat turned into spans,
 * and reports the per-layer metrics, the span self times and the
 * tracing overhead. See perfbench/README.md for the metric catalogue.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/obs_rollup.hh"
#include "campaign/runner.hh"
#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "campaign/sink.hh"
#include "campaign/spec.hh"
#include "corona/context.hh"
#include "corona/exec_plan.hh"
#include "corona/knobs.hh"
#include "corona/simulation.hh"
#include "obs/heartbeat.hh"
#include "obs/observe.hh"
#include "selftest.hh"
#include "spans.hh"
#include "stats.hh"
#include "stats/stats.hh"
#include "timed_workload.hh"
#include "trace/ctrace.hh"
#include "trace/synth.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace campaign = corona::campaign;
namespace core = corona::core;
namespace obs = corona::obs;
namespace fs = std::filesystem;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Working directory; a per-process subdirectory holds the generated
     * inputs and is removed on exit. */
    std::string work_dir = ".bench_build/perfbench-work";
    std::string git_sha = "none";
    std::string source_digest = "none";
    bool self_test_only = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench-driver: " << why
              << "\nusage: perfbench-driver --workload "
                 "paper-grid|xbar-256|coherent-sharing|trace-replay "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--git-sha SHA] [--source-digest HEX] | "
                 "--self-test\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    const auto value = core::parseUnsigned(text);
    if (!value)
        usage(flag + " expects a whole number, got \"" + text + "\"");
    return *value;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            o.self_test_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            o.trace = parseCount(flag, value) != 0;
        else if (flag == "--work-dir")
            o.work_dir = value;
        else if (flag == "--git-sha")
            o.git_sha = value;
        else if (flag == "--source-digest")
            o.source_digest = value;
        else
            usage("unknown flag " + flag);
    }
    if (!o.self_test_only && (o.workload.empty() || o.seconds <= 0))
        usage("--workload and a positive --seconds are required");
    return o;
}

// ---------------------------------------------------------- workloads

/** One benchmark workload: how its scenario is written and run. */
struct WorkloadDef
{
    std::string name;
    /** Primary misses per cell and warm-up misses before measuring. */
    std::uint64_t requests = 0;
    std::uint64_t warmup = 0;
    /** One run through core::runExperiment, no campaign layer. */
    bool single_run = false;
    /** Replays a synthesized .ctrace with the obs planes on. */
    bool trace_replay = false;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"paper-grid", 5'000, 1'000, false, false},
        {"xbar-256", 100'000, 0, true, false},
        {"coherent-sharing", 16'000, 2'000, false, false},
        {"trace-replay", 60'000, 0, false, true},
    };
    return defs;
}

const WorkloadDef &
findWorkload(const std::string &name)
{
    for (const WorkloadDef &def : workloadDefs()) {
        if (def.name == name)
            return def;
    }
    usage("unknown workload \"" + name + "\"");
}

/** Inputs the driver generates from the seed before any timing. */
struct Inputs
{
    fs::path trace_path;
    fs::path obs_dir;
};

/** The hotspot .ctrace the trace-replay workload replays: writes
 * mixed in, hot home cluster and stream both drawn from the seed. */
void
synthesizeTrace(const fs::path &path, std::uint64_t seed)
{
    corona::trace::SynthSpec spec;
    spec.pattern = corona::trace::SynthPattern::Hotspot;
    spec.records_per_thread = 64;
    spec.write_fraction = 0.3;
    spec.hot_fraction = 0.5;
    spec.hot_cluster = static_cast<std::uint32_t>(seed % spec.clusters);
    spec.seed = seed;
    corona::trace::WriterOptions writer_options;
    writer_options.synthetic_source = true;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    corona::trace::Writer writer(out, spec.threads, "synth:hotspot",
                                 writer_options);
    corona::trace::synthesize(spec, writer);
    writer.finish();
    out.close();
    if (!out)
        corona::sim::fatal("cannot write " + path.string());
}

/** The workload's scenario, as the text a user would write. */
std::string
scenarioText(const WorkloadDef &def, const Inputs &inputs)
{
    std::ostringstream s;
    if (def.name == "paper-grid") {
        // The sweep users run to reproduce the paper, at the benchmark's
        // request budget and seed.
        std::ifstream in("scenarios/fig9.scenario");
        if (!in)
            corona::sim::fatal("cannot read scenarios/fig9.scenario "
                               "(run from the repository root)");
        s << in.rdbuf() << "\n";
    } else if (def.name == "xbar-256") {
        s << "[scenario]\nname = xbar-256\n"
             "[workloads]\nworkload = Uniform clusters=256\n"
             "[configs]\nconfig = XBar/OCM clusters=256\n";
    } else if (def.name == "coherent-sharing") {
        s << "[scenario]\nname = coherent-sharing\n"
             "[workloads]\n"
             "workload = Migratory phase_length=2\n"
             "workload = Producer-Consumer\n"
             "workload = False Sharing lines=32\n"
             "[configs]\n"
             "config = XBar/OCM frontend=coherent inval_policy=unicast "
             "label=unicast\n"
             "config = XBar/OCM frontend=coherent broadcast_threshold=2 "
             "label=broadcast\n";
    } else {
        s << "[scenario]\nname = trace-replay\n"
             "[workloads]\nworkload = trace:"
          << inputs.trace_path.string()
          << " label=hotspot-synth\n"
             "[configs]\nconfig = XBar/OCM\nconfig = HMesh/ECM\n"
             "[observability]\nsample_period = 1000000\n"
             "trace_capacity = 65536\nsnapshot = on\nrollup = on\n"
             "dir = "
          << inputs.obs_dir.string() << "\n";
    }
    return s.str();
}

// -------------------------------------------------------------- passes

/** Host-time accounting of one traced pass, summed over its cells. */
struct LayerTotals
{
    std::uint64_t cells = 0;
    /** Contexts the campaign workers' pools served by reset. */
    std::uint64_t pool_reuses = 0;
    /** The context lease: the runner's lease time minus the workload's. */
    std::int64_t lease_ns = 0;
    std::uint64_t builds = 0;
    std::int64_t build_ns = 0;
    std::uint64_t sink_calls = 0;
    std::int64_t sink_ns = 0;
    std::uint64_t workload_calls = 0;
    std::int64_t workload_ns = 0;
    std::int64_t simulate_ns = 0;

    void
    add(const WorkloadTally &tally)
    {
        builds += tally.builds;
        build_ns += tally.build_ns;
        workload_calls += tally.calls;
        workload_ns += tally.call_ns;
    }

    LayerTotals &
    operator+=(const LayerTotals &o)
    {
        cells += o.cells;
        pool_reuses += o.pool_reuses;
        lease_ns += o.lease_ns;
        builds += o.builds;
        build_ns += o.build_ns;
        sink_calls += o.sink_calls;
        sink_ns += o.sink_ns;
        workload_calls += o.workload_calls;
        workload_ns += o.workload_ns;
        simulate_ns += o.simulate_ns;
        return *this;
    }
};

struct PassResult
{
    bool traced = false;
    double wall_s = 0.0;
    std::uint64_t digest = 0;
    std::vector<campaign::RunRecord> records;
    /** Traced passes only: host-time accounting, and every cell's
     * end-of-run registry values. */
    LayerTotals layers;
    campaign::ObsRollup rollup;
};

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::int64_t
toNs(double seconds)
{
    return static_cast<std::int64_t>(seconds * 1e9);
}

/** Record @p tally's sampled workload calls as spans under @p parent. */
void
addSampledCalls(SpanRecorder &spans, std::uint64_t parent, std::uint64_t run,
                const WorkloadTally &tally)
{
    for (const auto &[start, end] : tally.samples) {
        Span span;
        span.id = spans.nextId();
        span.parent = parent;
        span.name = "workload_call";
        span.run = run;
        span.sampled = true;
        span.start_ns = spans.sinceEpoch(start);
        span.end_ns = spans.sinceEpoch(end);
        spans.add(span);
    }
}

/** Times the CSV sink's consume() and records it as a span. The runner
 * calls sinks one at a time, so no lock is needed. */
class TimedSink final : public campaign::ResultSink
{
  public:
    TimedSink(campaign::ResultSink &inner, SpanRecorder &spans,
              std::uint64_t pass_span, LayerTotals &totals)
        : _inner(inner), _spans(spans), _passSpan(pass_span),
          _totals(totals)
    {
    }

    void
    begin(const campaign::CampaignSpec &spec, std::size_t total) override
    {
        _inner.begin(spec, total);
    }

    void
    consume(const campaign::RunRecord &record) override
    {
        const Clock::time_point start = Clock::now();
        {
            SpanScope span(&_spans, "sink", _passSpan, record.index);
            _inner.consume(record);
        }
        _totals.sink_ns += nsSince(start);
        ++_totals.sink_calls;
    }

    void end() override { _inner.end(); }

  private:
    campaign::ResultSink &_inner;
    SpanRecorder &_spans;
    std::uint64_t _passSpan;
    LayerTotals &_totals;
};

/** The numeric field @p name of one heartbeat line. */
double
heartbeatField(std::string_view line, std::string_view name)
{
    const std::string key = "\"" + std::string(name) + "\":";
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos)
        corona::sim::fatal("perfbench: heartbeat line lacks " + key + ": " +
                           std::string(line));
    return std::strtod(std::string(line.substr(at + key.size(), 40)).c_str(),
                       nullptr);
}

/**
 * The traced pass's view into the campaign runner, as the stream under
 * its heartbeat writer. The runner writes a "cell" line on the worker
 * thread as soon as the cell is done, so each such line becomes that
 * cell's spans, cell → {lease → workload_lease, simulate → sampled
 * workload calls}, laid out by the line's wall_s and lease_s and filled
 * from the worker's WorkloadTally. "worker_done" lines give the pool
 * reuses. The writer serialises lines, so no lock is needed.
 */
class CellTap final : public std::streambuf
{
  public:
    CellTap(SpanRecorder &spans, std::uint64_t pass_span)
        : _spans(spans), _passSpan(pass_span)
    {
    }

    const LayerTotals &totals() const { return _totals; }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c == traits_type::eof())
            return traits_type::not_eof(c);
        if (c == '\n') {
            handle(_line);
            _line.clear();
        } else {
            _line.push_back(static_cast<char>(c));
        }
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            overflow(traits_type::to_int_type(s[i]));
        return n;
    }

  private:
    Span
    span(const char *name, std::uint64_t parent, std::uint64_t run,
         std::int64_t start_ns, std::int64_t end_ns)
    {
        Span s;
        s.id = _spans.nextId();
        s.parent = parent;
        s.name = name;
        s.run = run;
        s.start_ns = start_ns;
        s.end_ns = end_ns;
        return s;
    }

    void
    handle(std::string_view line)
    {
        if (line.find("\"event\":\"worker_done\"") != std::string_view::npos) {
            _totals.pool_reuses += static_cast<std::uint64_t>(
                heartbeatField(line, "pool_reuses"));
            return;
        }
        if (line.find("\"event\":\"cell\"") == std::string_view::npos)
            return;
        const std::int64_t end = _spans.sinceEpoch(Clock::now());
        const std::int64_t start = end - toNs(heartbeatField(line, "wall_s"));
        const std::int64_t leased =
            start + toNs(heartbeatField(line, "lease_s"));
        const auto run =
            static_cast<std::uint64_t>(heartbeatField(line, "run"));
        const WorkloadTally tally = WorkloadTally::drain();

        const Span cell = span("cell", _passSpan, run, start, end);
        const Span lease = span("lease", cell.id, run, start, leased);
        Span simulate = span("simulate", cell.id, run, leased, end);
        simulate.inner_ns = tally.call_ns;
        // The workload lease is the first step of the runner's lease.
        _spans.add(span("workload_lease", lease.id, run, start,
                        std::min(leased, start + tally.lease_ns)));
        _spans.add(cell);
        _spans.add(lease);
        _spans.add(simulate);
        addSampledCalls(_spans, simulate.id, run, tally);

        ++_totals.cells;
        _totals.lease_ns += std::max<std::int64_t>(
            leased - start - tally.lease_ns, 0);
        _totals.simulate_ns += end - leased;
        _totals.add(tally);
    }

    SpanRecorder &_spans;
    std::uint64_t _passSpan;
    std::string _line;
    LayerTotals _totals;
};

/**
 * Everything a pass needs, built by the timed set-up: the resolved
 * scenario and its obs wiring, and for the single run its workload and
 * context. A campaign pass builds its contexts and workloads inside
 * CampaignRunner, as corona-run does. A traced set-up also wraps every
 * workload factory in timedFactory and turns the rollup plane on, so
 * the runner's own path yields the per-layer figures.
 */
class PassSetup
{
  public:
    PassSetup(const WorkloadDef &def, const Options &options,
              const Inputs &inputs, bool traced)
        : _def(def), _traced(traced)
    {
        _scenario = campaign::parseScenario(scenarioText(def, inputs));
        _scenario.requests = def.requests;
        _scenario.warmup_requests = def.warmup;
        _scenario.seed = options.seed;
        _scenario.seed_policy = campaign::SeedPolicy::Fixed;
        _spec = _scenario.resolve();
        _plans = campaign::expand(_spec);
        _obsSetup.apply(_scenario.observability, _scenario.name, _options);
        // At most min(nproc, 4) campaign workers, as users run the grid.
        _options.threads = std::min<std::size_t>(
            std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                    4),
            _plans.size());

        if (traced) {
            for (campaign::WorkloadSpec &workload : _spec.workloads)
                workload.make = timedFactory(workload.make);
            if (!_options.observability.enabled()) {
                _options.observability.dir = inputs.obs_dir.string();
                fs::create_directories(inputs.obs_dir);
            }
            _options.observability.rollup = true;
        }
        if (def.single_run) {
            const campaign::RunPlan &plan = _plans.front();
            _singleWorkload = traced ? timedFactory(plan.make_workload)()
                                     : plan.make_workload();
            _singleContext = std::make_unique<core::SimContext>(
                plan.system, engineFor(plan, *_singleWorkload));
        }
    }

    const campaign::CampaignSpec &spec() const { return _spec; }
    const std::vector<campaign::RunPlan> &plans() const { return _plans; }
    std::size_t workers() const
    {
        return _def.single_run ? 1 : _options.threads;
    }

    PassResult
    runPass(SpanRecorder *spans)
    {
        std::ostringstream csv;
        campaign::CsvSink csv_sink(csv);
        PassResult result;
        result.traced = _traced;
        const Clock::time_point start = Clock::now();
        {
            SpanScope pass_span(spans, "pass", 0, 0);
            std::optional<TimedSink> timed_sink;
            if (_traced)
                timed_sink.emplace(csv_sink, *spans, pass_span.id(),
                                   result.layers);
            campaign::ResultSink &sink =
                timed_sink ? static_cast<campaign::ResultSink &>(*timed_sink)
                           : csv_sink;
            if (_def.single_run) {
                runSingle(sink, spans, pass_span.id(), result);
            } else if (!_traced) {
                campaign::CampaignRunner runner(_options);
                runner.addSink(sink);
                result.records = runner.run(_spec);
            } else {
                CellTap tap(*spans, pass_span.id());
                std::ostream tap_stream(&tap);
                obs::HeartbeatWriter heartbeat(tap_stream);
                campaign::RunnerOptions options = _options;
                options.heartbeat = &heartbeat;
                campaign::CampaignRunner runner(options);
                runner.addSink(sink);
                result.records = runner.run(_spec);
                result.layers += tap.totals();
            }
        }
        result.wall_s = secondsSince(start);
        result.digest = fnv1a(csv.str());
        if (_traced && !_def.single_run)
            result.rollup = campaign::readRollupFile(
                _options.observability.dir + "/rollup.csv");
        return result;
    }

    /** Observed minus unobserved host ms of the first cell, as the
     * median over @p pairs alternating runs on one pooled context (0
     * without obs planes). */
    double
    obsOverheadMs(int pairs) const
    {
        if (!_options.observability.enabled())
            return 0.0;
        const campaign::RunPlan &plan = _plans.front();
        core::SystemPool pool;
        campaign::WorkloadCache workloads;
        std::vector<double> plain, observed;
        for (int i = 0; i < 2 * pairs; ++i) {
            corona::workload::Workload &wl = workloads.lease(plan);
            core::SimContext &ctx = pool.lease(plan.system, engineFor(plan, wl));
            const Clock::time_point start = Clock::now();
            if (i % 2) {
                obs::RollupCapture capture;
                obs::RunObservability run_obs =
                    _options.observability.forRun(plan.index);
                run_obs.capture = &capture;
                core::runExperiment(ctx, wl, plan.params, run_obs);
                observed.push_back(secondsSince(start) * 1e3);
            } else {
                core::runExperiment(ctx, wl, plan.params);
                plain.push_back(secondsSince(start) * 1e3);
            }
        }
        return median(observed) - median(plain);
    }

    /** Grid indices of the cells whose effective engine is the sharded
     * one; it depends only on the plan and the workload. */
    std::vector<std::size_t>
    shardedCells() const
    {
        std::vector<std::unique_ptr<corona::workload::Workload>> built(
            _spec.workloads.size());
        std::vector<std::size_t> sharded;
        for (const campaign::RunPlan &plan : _plans) {
            auto &wl = built[plan.workload_index];
            if (!wl)
                wl = plan.make_workload();
            if (engineFor(plan, *wl) > 0)
                sharded.push_back(plan.index);
        }
        return sharded;
    }

  private:
    /** The engine the runner would pick for @p plan (see
     * executePlanWith in the campaign layer). */
    unsigned
    engineFor(const campaign::RunPlan &plan,
              const corona::workload::Workload &wl) const
    {
        return core::effectiveSimThreads(
            plan.params.sim_threads, plan.system, wl,
            plan.params.warmup_requests,
            _options.observability.enabled() &&
                _options.observability.trace_capacity > 0);
    }

    /** The single large run: core::runExperiment on the set-up's
     * context, with no campaign layer. */
    void
    runSingle(campaign::ResultSink &sink, SpanRecorder *spans,
              std::uint64_t pass_span, PassResult &result)
    {
        const campaign::RunPlan &plan = _plans.front();
        campaign::RunRecord record;
        record.index = plan.index;
        record.workload = plan.workload;
        record.config = plan.config;
        record.seed = plan.params.seed;
        const Clock::time_point start = Clock::now();
        try {
            SpanScope cell(spans, "cell", pass_span, plan.index);
            SpanScope simulate(spans, "simulate", cell.id(), plan.index);
            if (_traced) {
                WorkloadTally::drain(); // drop the set-up's construction
                obs::RollupCapture capture;
                capture.want_paths = true;
                obs::RunObservability run_obs;
                run_obs.capture = &capture;
                record.metrics = core::runExperiment(
                    *_singleContext, *_singleWorkload, plan.params, run_obs);
                const WorkloadTally tally = WorkloadTally::drain();
                simulate.setInner(tally.call_ns);
                addSampledCalls(*spans, simulate.id(), plan.index, tally);
                result.layers.add(tally);
                result.layers.cells = 1;
                result.layers.simulate_ns = nsSince(start);
                result.rollup.addRun(plan.config, plan.index,
                                     capture.end_tick, capture.paths,
                                     std::move(capture.values));
            } else {
                record.metrics = core::runExperiment(
                    *_singleContext, *_singleWorkload, plan.params);
            }
        } catch (const std::exception &e) {
            record.ok = false;
            record.error = e.what();
            record.metrics = core::RunMetrics{};
        }
        record.wall_seconds = secondsSince(start);
        sink.begin(_spec, 1);
        sink.consume(record);
        sink.end();
        result.records.push_back(std::move(record));
    }

    const WorkloadDef &_def;
    bool _traced;
    campaign::ScenarioSpec _scenario;
    campaign::CampaignSpec _spec;
    std::vector<campaign::RunPlan> _plans;
    campaign::RunnerOptions _options;
    campaign::ScenarioObsSetup _obsSetup;

    std::unique_ptr<corona::workload::Workload> _singleWorkload;
    std::unique_ptr<core::SimContext> _singleContext;
};

// ----------------------------------------------------- simulated counts

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};


/** The suffix of "<prefix><index>/<suffix>", or empty. */
std::string_view
indexedSuffix(std::string_view path, std::string_view prefix)
{
    if (path.substr(0, prefix.size()) != prefix)
        return {};
    std::size_t i = prefix.size();
    while (i < path.size() && path[i] >= '0' && path[i] <= '9')
        ++i;
    if (i == prefix.size() || i >= path.size() || path[i] != '/')
        return {};
    return path.substr(i + 1);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer simulated counts of one traced pass, from its cells'
 * end-of-run registry values. They depend only on the simulation, so
 * they repeat exactly for a given seed. */
std::vector<Metric>
simulatedCounts(const PassResult &pass)
{
    double wait_sum = 0, wait_count = 0, busy = 0, channel_ticks = 0,
           grants = 0, batched = 0;
    double mesh_hops = 0, mesh_msgs = 0, lat_sum = 0, lat_count = 0;
    double service_sum = 0, service_count = 0;
    double l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
    double coh_msgs = 0, coh_invals = 0, coh_requests = 0;
    for (const campaign::RollupGroup &group : pass.rollup.groups()) {
        for (const campaign::RollupRow &row : group.rows) {
            std::map<std::string_view, double> value;
            for (std::size_t i = 0; i < group.paths.size(); ++i)
                value.emplace(group.paths[i], row.values[i]);
            // A distribution probe's total: its mean times its count.
            const auto total = [&](std::string_view stem) {
                const std::string s(stem);
                return value[s + "mean"] * value[s + "count"];
            };
            const double end = static_cast<double>(row.tick);
            bool mesh = false, coherent = false;
            for (const auto &[p, v] : value) {
                if (auto x = indexedSuffix(p, "xbar/ch/"); !x.empty()) {
                    if (x == "token/wait/count") {
                        wait_count += v;
                        wait_sum += total(p.substr(0, p.size() - 5));
                    } else if (x == "busy_ticks") {
                        busy += v;
                        channel_ticks += end;
                    } else if (x == "token/grants") {
                        grants += v;
                    } else if (x == "token/grants_batched") {
                        batched += v;
                    }
                } else if (indexedSuffix(p, "mc/") == "service/count") {
                    service_count += v;
                    service_sum += total(p.substr(0, p.size() - 5));
                } else if (auto c = indexedSuffix(p, "cache/"); !c.empty()) {
                    if (c == "l1/hits")
                        l1_hits += v;
                    else if (c == "l1/misses")
                        l1_misses += v;
                    else if (c == "l2/hits")
                        l2_hits += v;
                    else if (c == "l2/misses")
                        l2_misses += v;
                } else if (p.rfind("mesh/", 0) == 0) {
                    mesh = true;
                } else if (p.rfind("coherence/msg/", 0) == 0) {
                    coherent = true;
                    coh_msgs += v;
                    if (p == "coherence/msg/inval" ||
                        p == "coherence/msg/invalbcast")
                        coh_invals += v;
                }
            }
            lat_count += value["net/latency/count"];
            lat_sum += total("net/latency/");
            if (mesh) {
                mesh_hops += value["net/hops"];
                mesh_msgs += value["net/messages"];
            }
            if (coherent)
                coh_requests += static_cast<double>(
                    pass.records.at(row.run).metrics.requests_issued);
        }
    }
    return {
        {"xbar.token_wait_ns", ratio(wait_sum, wait_count) / 1e3, "ns"},
        {"xbar.busy_frac", ratio(busy, channel_ticks), "frac"},
        {"xbar.grants_batched_frac", ratio(batched, grants), "frac"},
        {"mesh.hops_per_msg", ratio(mesh_hops, mesh_msgs), "hops/msg"},
        {"noc.latency_ns", ratio(lat_sum, lat_count) / 1e3, "ns"},
        {"memory.service_ns", ratio(service_sum, service_count) / 1e3,
         "ns"},
        {"cache.l1_hit_frac", ratio(l1_hits, l1_hits + l1_misses), "frac"},
        {"cache.l2_hit_frac", ratio(l2_hits, l2_hits + l2_misses), "frac"},
        {"coherence.msgs_per_request", ratio(coh_msgs, coh_requests),
         "msgs/request"},
        {"coherence.inval_frac", ratio(coh_invals, coh_msgs), "frac"},
    };
}

/** The four Section 5 geomeans from a paper-grid pass, in
 * kPaperGeomeans order (as bench/fig8_speedup.cc computes them). */
std::array<double, 4>
paperGeomeans(const campaign::CampaignSpec &spec,
              const std::vector<campaign::RunRecord> &records)
{
    const auto column = [&](const std::string &name) {
        for (std::size_t c = 0; c < spec.configs.size(); ++c) {
            if (spec.configs[c].name() == name)
                return c;
        }
        corona::sim::fatal("paper-grid lacks config " + name);
    };
    const std::size_t hmesh_ecm = column("HMesh/ECM");
    const std::size_t hmesh_ocm = column("HMesh/OCM");
    const std::size_t xbar_ocm = column("XBar/OCM");
    std::vector<std::vector<const core::RunMetrics *>> grid(
        spec.workloads.size(),
        std::vector<const core::RunMetrics *>(spec.configs.size()));
    for (const auto &record : records)
        grid[record.workload_index][record.config_index] = &record.metrics;
    std::array<std::vector<double>, 4> gains;
    for (std::size_t w = 0; w < grid.size(); ++w) {
        const std::size_t base = spec.workloads[w].synthetic ? 0 : 2;
        gains[base].push_back(
            grid[w][hmesh_ocm]->speedupOver(*grid[w][hmesh_ecm]));
        gains[base + 1].push_back(
            grid[w][xbar_ocm]->speedupOver(*grid[w][hmesh_ocm]));
    }
    std::array<double, 4> geomeans{};
    for (std::size_t i = 0; i < 4; ++i)
        geomeans[i] = corona::stats::geometricMean(gains[i]);
    return geomeans;
}

// -------------------------------------------------------------- report

std::string
jsonNumber(double v)
{
    std::ostringstream s;
    s << std::setprecision(17) << v;
    return s.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
spreadNote(const std::vector<double> &values)
{
    const auto q = quartiles(values);
    std::ostringstream s;
    s << "median of " << values.size() << "; q1 " << q[0] << ", q3 "
      << q[2];
    return s.str();
}

/** A removed-on-exit directory for the run's generated files. */
class TempDir
{
  public:
    explicit TempDir(fs::path path) : _path(std::move(path))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(_path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
    const fs::path &path() const { return _path; }

  private:
    fs::path _path;
};

/** Set-ups timed before each pass; the pass uses the last. */
constexpr int kSetupsPerPass = 3;

int
run(const Options &options)
{
    const WorkloadDef &def = findWorkload(options.workload);
    const TempDir temp(fs::path(options.work_dir) /
                       ("run-" + std::to_string(::getpid())));
    const Inputs inputs{temp.path() / "hotspot.ctrace", temp.path() / "obs"};
    if (def.trace_replay)
        synthesizeTrace(inputs.trace_path, options.seed);

    // Each pass is set up afresh, kSetupsPerPass times, and every set-up
    // is timed, so set-up and pass samples both spread over the whole
    // window. Passes are untraced only, or alternate untraced / traced.
    // A pass starts only while the window can hold it, judged by the
    // median so far.
    std::vector<double> setup_s, cycle_s;
    std::unique_ptr<PassSetup> setup;
    std::vector<PassResult> passes;
    SpanRecorder spans;
    const Clock::time_point window = Clock::now();
    const std::size_t min_passes = options.trace ? 4 : 3;
    while (passes.size() < min_passes ||
           secondsSince(window) + median(cycle_s) < options.seconds) {
        const Clock::time_point cycle = Clock::now();
        const bool traced = options.trace && passes.size() % 2 == 1;
        for (int i = 0; i < kSetupsPerPass; ++i) {
            setup.reset();
            const Clock::time_point start = Clock::now();
            setup = std::make_unique<PassSetup>(def, options, inputs, traced);
            setup_s.push_back(secondsSince(start));
        }
        passes.push_back(setup->runPass(traced ? &spans : nullptr));
        cycle_s.push_back(secondsSince(cycle));
    }
    const double obs_overhead_ms =
        options.trace && def.trace_replay ? setup->obsOverheadMs(3) : 0.0;

    // Correctness gate: every cell ok with its full budget, and one
    // sink digest across every pass, traced or not.
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    const std::uint64_t digest = passes.front().digest;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassResult &pass = passes[p];
        for (const auto &record : pass.records) {
            ++attempted;
            const std::uint64_t budget =
                setup->plans()[record.index].params.requests;
            if (!record.ok || record.metrics.requests_issued != budget) {
                ++failed;
                problems.push_back(
                    "cell " + std::to_string(record.index) + " (" +
                    record.workload + " on " + record.config + ") " +
                    (record.ok ? "issued " +
                                     std::to_string(
                                         record.metrics.requests_issued) +
                                     " of " + std::to_string(budget)
                               : "failed: " + record.error));
            }
        }
        if (pass.digest != digest) {
            std::ostringstream s;
            s << "pass " << p << (pass.traced ? " (traced)" : "")
              << " sink digest " << std::hex << pass.digest
              << " differs from pass 0's " << digest;
            problems.push_back(s.str());
        }
    }
    const bool correct = problems.empty();

    // End-to-end figures come from the untraced passes only.
    // Cell statistics are over each grid cell's median time across the
    // untraced passes, so one slow pass moves no cell by much.
    std::vector<double> wall_s, traced_wall_s;
    std::map<std::size_t, std::vector<double>> cell_samples;
    for (const PassResult &pass : passes) {
        (pass.traced ? traced_wall_s : wall_s).push_back(pass.wall_s);
        if (!pass.traced) {
            for (const auto &record : pass.records)
                cell_samples[record.index].push_back(record.wall_seconds *
                                                     1e3);
        }
    }
    std::vector<double> cell_ms;
    for (const auto &[index, samples] : cell_samples)
        cell_ms.push_back(median(samples));
    const Tail tail = tailPercentile(cell_ms);
    const PassResult &last = passes.back();

    std::cout << std::setprecision(6);
    std::cout << "perfbench: workload " << def.name << ", seed "
              << options.seed << ", " << (options.trace ? "traced" : "untraced")
              << " run, " << passes.size() << " passes of "
              << last.records.size() << " cells\n";
    std::cout << "provenance: {\"git_sha\":\"" << options.git_sha
              << "\",\"source_digest\":\"" << options.source_digest
              << "\",\"compiler\":\"" << PERFBENCH_COMPILER
              << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"nproc\":" << std::thread::hardware_concurrency()
              << ",\"workers\":" << setup->workers()
              << ",\"requests\":" << def.requests
              << ",\"warmup_requests\":" << def.warmup
              << ",\"cells_per_pass\":" << last.records.size()
              << ",\"seed\":" << options.seed << "}\n";
    // The effective engine of every cell: the same in every pass, since
    // it depends only on the plan and the workload.
    const std::vector<std::size_t> sharded = setup->shardedCells();
    std::cout << "engine: classic on " << last.records.size() - sharded.size()
              << " of " << last.records.size() << " cells per pass";
    if (!sharded.empty()) {
        std::cout << "; sharded on cells";
        for (const std::size_t index : sharded)
            std::cout << " " << index;
    }
    std::cout << "\n";
    std::cout << "digest: " << std::hex << digest << std::dec << " ("
              << passes.size() << " passes"
              << (correct ? ", all equal" : "") << ")\n";
    for (const std::string &problem : problems)
        std::cout << "CORRECTNESS FAILURE: " << problem << "\n";
    // Known defect, reported and never gated: a cell achieving more
    // memory bandwidth than its workload offers.
    std::size_t over_offered = 0;
    for (const auto &record : passes.front().records) {
        const core::RunMetrics &m = record.metrics;
        if (m.achieved_bytes_per_second > m.offered_bytes_per_second) {
            if (!over_offered++)
                std::cout << "known defect (ungated): achieved above "
                             "offered bandwidth on";
            std::cout << " " << record.workload << "@" << record.config
                      << " ("
                      << m.achieved_bytes_per_second /
                             m.offered_bytes_per_second
                      << "x)";
        }
    }
    if (over_offered)
        std::cout << "\n";
    std::cout << "failed_frac = "
              << static_cast<double>(failed) / static_cast<double>(attempted)
              << " (" << failed << " of " << attempted << " cells)\n";

    std::vector<Metric> metrics;
    if (!options.trace) {
        metrics = {
            {"wall_s", median(wall_s), "s"},
            {"cell_ms_p50", median(cell_ms), "ms"},
            {"cell_ms_tail", tail.value, "ms"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        std::cout << "pass wall_s:";
        for (const double w : wall_s)
            std::cout << " " << w;
        std::cout << "\nwall_s: " << spreadNote(wall_s) << " passes\n"
                  << "cell_ms: over " << cell_ms.size()
                  << " cells' medians across " << wall_s.size()
                  << " passes; tail "
                  << (tail.defined ? "is p" : "undefined below 20 cells, "
                                              "reporting p")
                  << tail.percentile << "\n"
                  << "setup_s: " << spreadNote(setup_s) << " set-ups\n";
    } else {
        // Per-layer figures from the traced passes.
        LayerTotals t;
        std::size_t traced = 0;
        double traced_events = 0;
        for (const PassResult &pass : passes) {
            if (!pass.traced)
                continue;
            ++traced;
            t += pass.layers;
            for (const auto &record : pass.records)
                traced_events +=
                    static_cast<double>(record.metrics.events_executed);
        }
        const double n = static_cast<double>(traced);
        const PassResult &sample = passes[1];
        double issued = 0, coalesced = 0, stalls = 0, peak_queue = 0,
               events = 0;
        for (const auto &record : sample.records) {
            const core::RunMetrics &m = record.metrics;
            issued += static_cast<double>(m.requests_issued);
            coalesced += static_cast<double>(m.requests_coalesced);
            stalls += static_cast<double>(m.mshr_full_stalls);
            peak_queue =
                std::max(peak_queue, static_cast<double>(m.peak_mc_queue));
            events += static_cast<double>(m.events_executed);
        }
        const double ns_per_call =
            ratio(static_cast<double>(t.workload_ns),
                  static_cast<double>(t.workload_calls));
        metrics = {
            {"sim.events", events, "count"},
            {"sim.events_per_request", ratio(events, issued),
             "events/request"},
            {"corona.self_ns_per_event",
             ratio(static_cast<double>(t.simulate_ns - t.workload_ns),
                   traced_events),
             "ns"},
            {"campaign.lease_ms",
             ratio(static_cast<double>(t.lease_ns) / 1e6,
                   static_cast<double>(t.cells)),
             "ms"},
            {"campaign.pool_reuse_frac",
             ratio(static_cast<double>(t.pool_reuses),
                   static_cast<double>(t.cells)),
             "frac"},
            {"campaign.sink_ms",
             ratio(static_cast<double>(t.sink_ns) / 1e6,
                   static_cast<double>(t.sink_calls)),
             "ms"},
            {"workload.calls",
             ratio(static_cast<double>(t.workload_calls), n), "count"},
            {"workload.ns_per_call", ns_per_call, "ns"},
            {"trace.ns_per_record", def.trace_replay ? ns_per_call : 0.0,
             "ns"},
            {"trace.open_ms",
             def.trace_replay ? ratio(static_cast<double>(t.build_ns) / 1e6,
                                      static_cast<double>(t.builds))
                              : 0.0,
             "ms"},
            {"obs.overhead_ms", obs_overhead_ms, "ms"},
            {"hub.mshr_full_stalls", stalls, "count"},
            {"hub.coalesced_frac", ratio(coalesced, issued + coalesced),
             "frac"},
            {"memory.peak_queue", peak_queue, "count"},
            {"memory.bw_over_offered_cells",
             static_cast<double>(over_offered), "count"},
            {"fidelity_err",
             correct && def.name == "paper-grid"
                 ? fidelityError(paperGeomeans(setup->spec(),
                                               sample.records))
                 : 0.0,
             "ln-ratio"},
            {"tracing.overhead_s", median(traced_wall_s) - median(wall_s),
             "s"},
        };
        for (Metric &m : simulatedCounts(sample))
            metrics.push_back(std::move(m));
        const auto self = selfTimes(spans.spans());
        for (const char *name :
             {"lease", "pass", "simulate", "sink", "workload_lease"}) {
            const auto found = self.find(name);
            metrics.push_back(
                {std::string("self.") + name + "_ms",
                 found == self.end()
                     ? 0.0
                     : static_cast<double>(found->second) / 1e6 / n,
                 "ms"});
        }
        metrics.push_back({"self.workload_ms",
                           static_cast<double>(t.workload_ns) / 1e6 / n,
                           "ms"});
        std::cout << "traced passes: " << traced << ", untraced: "
                  << wall_s.size() << "; tracing overhead is the "
                  << "difference of their median wall_s\n";

        // Spans are written once the run is over, never during it.
        const fs::path span_file =
            fs::path(options.work_dir) / ("spans-" + def.name + ".json");
        std::ofstream out(span_file, std::ios::trunc);
        spans.writeChromeTrace(out);
        std::cout << "spans: " << spans.spans().size() << " written to "
                  << span_file.string() << "\n";
    }

    for (const Metric &m : metrics)
        std::cout << m.name << " = " << m.value << " " << m.unit << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options options = perfbench::parseOptions(argc, argv);
    if (const int failures = perfbench::runSelfTests(std::cerr)) {
        std::cerr << "perfbench: " << failures << " self-test(s) failed\n";
        return 3;
    }
    if (options.self_test_only) {
        std::cout << "perfbench: self-tests passed\n";
        return 0;
    }
    try {
        return perfbench::run(options);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
