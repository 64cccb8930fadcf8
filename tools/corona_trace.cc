/**
 * @file
 * corona-trace — create and inspect `.ctrace` workload traces (see
 * README "Trace workloads").
 *
 *   corona-trace capture WORKLOAD OUT.ctrace [--config NAME]
 *                [--requests N] [--seed S] [--name LABEL]
 *       run the named registry generator through a full network
 *       simulation, capturing the annotated miss stream the run
 *       actually draws (the paper's two-stage methodology: the
 *       capture pass stands in for the COTSon full-system run)
 *   corona-trace inspect FILE.ctrace [--threads] [--records N]
 *       validate the container and print its header, block census,
 *       and optionally the first N records per thread
 *   corona-trace synth PATTERN OUT.ctrace [--threads N]
 *                [--clusters N] [--records N] [--mean-think T]
 *                [--write-fraction F] [--hot-cluster C]
 *                [--hot-fraction F] [--burst-length N]
 *                [--burst-gap T] [--seed S]
 *       generate an adversarial pattern (hotspot, all-to-one,
 *       ping-pong, burst) directly into a trace
 *
 * Every subcommand exits non-zero on a malformed file or argument, so
 * the CI smoke can use `inspect` as a validity gate; all output is
 * deterministic for a given input.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/scenario.hh"
#include "corona/knobs.hh"
#include "corona/simulation.hh"
#include "sim/logging.hh"
#include "trace/capture.hh"
#include "trace/ctrace.hh"
#include "trace/synth.hh"
#include "workload/registry.hh"

namespace {

using namespace corona;

void
usage(std::ostream &os)
{
    os << "corona-trace — create and inspect .ctrace workload "
          "traces\n\n"
          "  corona-trace capture WORKLOAD OUT.ctrace [--config NAME]\n"
          "               [--requests N] [--seed S] [--name LABEL]\n"
          "      simulate the named generator (knobs allowed, e.g.\n"
          "      \"Uniform mean_think=1000\") and capture the miss\n"
          "      stream the run draws\n"
          "  corona-trace inspect FILE.ctrace [--threads] "
          "[--records N]\n"
          "      validate and print header + block census\n"
          "  corona-trace synth PATTERN OUT.ctrace [--threads N]\n"
          "               [--clusters N] [--records N] "
          "[--mean-think T]\n"
          "               [--write-fraction F] [--hot-cluster C]\n"
          "               [--hot-fraction F] [--burst-length N]\n"
          "               [--burst-gap T] [--seed S]\n"
          "      write a hotspot | all-to-one | ping-pong | burst "
          "pattern\n";
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "corona-trace: " << message << "\n";
    std::exit(1);
}

std::uint64_t
parseCount(const std::string &option, const std::string &text)
{
    const auto parsed = core::parsePositiveCount(text);
    if (!parsed)
        die(option + " needs a strictly positive decimal, got \"" +
            text + "\"");
    return *parsed;
}

double
parseFraction(const std::string &option, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(value >= 0.0) ||
        value > 1.0)
        die(option + " needs a fraction in [0,1], got \"" + text +
            "\"");
    return value;
}

/** Pull --key value pairs out of @p args; leaves positionals. */
class OptionParser
{
  public:
    explicit OptionParser(std::vector<std::string> args)
        : _args(std::move(args))
    {
    }

    bool
    flag(const std::string &name)
    {
        for (std::size_t i = 0; i < _args.size(); ++i) {
            if (_args[i] == name) {
                _args.erase(_args.begin() +
                            static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    bool
    value(const std::string &name, std::string &out)
    {
        for (std::size_t i = 0; i < _args.size(); ++i) {
            if (_args[i] != name)
                continue;
            if (i + 1 >= _args.size())
                die(name + " needs a value");
            out = _args[i + 1];
            _args.erase(_args.begin() + static_cast<std::ptrdiff_t>(i),
                        _args.begin() +
                            static_cast<std::ptrdiff_t>(i + 2));
            return true;
        }
        return false;
    }

    const std::vector<std::string> &
    positionals() const
    {
        for (const std::string &arg : _args)
            if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-')
                die("unknown option \"" + arg + "\"");
        return _args;
    }

  private:
    std::vector<std::string> _args;
};

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out)
        die("cannot write \"" + path + "\"");
    return out;
}

void
finishOut(std::ofstream &out, const std::string &path)
{
    out.flush();
    if (!out)
        die("write failed: " + path);
}

// ------------------------------------------------------------ capture

int
captureCommand(OptionParser &options)
{
    std::string config_name = "XBar/OCM";
    std::string requests_text, seed_text, label;
    options.value("--config", config_name);
    options.value("--requests", requests_text);
    options.value("--seed", seed_text);
    options.value("--name", label);
    const auto &positionals = options.positionals();
    if (positionals.size() != 2)
        die("capture needs WORKLOAD and OUT.ctrace (--help)");
    const std::string &expression = positionals[0];
    const std::string &out_path = positionals[1];

    const campaign::AxisExpression axis =
        campaign::parseAxisExpression(expression, "workload");
    const workload::RegistryEntry &entry =
        workload::registryEntry(axis.name);
    auto source = workload::registryFactory(axis.name, axis.knobs)();

    core::SimParams params;
    if (!requests_text.empty())
        params.requests = parseCount("--requests", requests_text);
    if (!seed_text.empty())
        params.seed = parseCount("--seed", seed_text);

    trace::WriterOptions writer_options;
    writer_options.synthetic_source = entry.synthetic;
    std::ofstream out = openOut(out_path);
    trace::Writer writer(
        out, static_cast<std::uint32_t>(source->threads()),
        label.empty() ? campaign::canonicalExpression(axis) : label,
        writer_options);
    const core::RunMetrics metrics = trace::captureRun(
        core::namedConfig(config_name), *source, params, writer);
    finishOut(out, out_path);

    std::cout << "captured " << writer.written() << " records of "
              << source->name() << " on " << metrics.config << " to "
              << out_path << "\n";
    return 0;
}

// ------------------------------------------------------------ inspect

int
inspectCommand(OptionParser &options)
{
    const bool per_thread = options.flag("--threads");
    std::string records_text;
    std::uint64_t show_records = 0;
    if (options.value("--records", records_text))
        show_records = parseCount("--records", records_text);
    const auto &positionals = options.positionals();
    if (positionals.size() != 1)
        die("inspect needs exactly one FILE.ctrace (--help)");
    const std::string &path = positionals[0];

    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot read \"" + path + "\"");
    trace::Reader reader(in, path);
    const trace::TraceInfo &info = reader.info();

    std::cout << "name," << info.name << "\n"
              << "version," << info.version << "\n"
              << "threads," << info.threads << "\n"
              << "records," << info.records << "\n"
              << "reference_stream," << (info.reference_stream ? 1 : 0)
              << "\n"
              << "synthetic_source," << (info.synthetic_source ? 1 : 0)
              << "\n"
              << "total_think," << info.total_think << "\n"
              << "offered_bytes_per_second,"
              << info.offered_bytes_per_second << "\n"
              << "blocks," << reader.blocks().size() << "\n";

    if (per_thread) {
        std::cout << "thread,blocks,records\n";
        for (std::uint32_t t = 0; t < info.threads; ++t) {
            std::uint64_t records = 0;
            const auto &blocks = reader.threadBlocks(t);
            for (const std::uint32_t index : blocks)
                records += reader.blocks()[index].count;
            std::cout << t << "," << blocks.size() << "," << records
                      << "\n";
        }
    }

    if (show_records > 0) {
        std::cout << "thread,seq,home,line,think,write\n";
        std::vector<workload::TraceRecord> block;
        for (std::uint32_t t = 0; t < info.threads; ++t) {
            std::uint64_t seq = 0;
            for (const std::uint32_t index : reader.threadBlocks(t)) {
                if (seq >= show_records)
                    break;
                reader.readBlock(index, block);
                for (const workload::TraceRecord &record : block) {
                    if (seq >= show_records)
                        break;
                    std::cout << t << "," << seq << "," << record.home
                              << "," << record.line << ","
                              << record.think_time << ","
                              << unsigned(record.write) << "\n";
                    ++seq;
                }
            }
        }
    }
    return 0;
}

// -------------------------------------------------------------- synth

int
synthCommand(OptionParser &options)
{
    trace::SynthSpec spec;
    std::string text;
    if (options.value("--threads", text))
        spec.threads =
            static_cast<std::uint32_t>(parseCount("--threads", text));
    if (options.value("--clusters", text))
        spec.clusters = static_cast<std::uint32_t>(
            parseCount("--clusters", text));
    if (options.value("--records", text))
        spec.records_per_thread = parseCount("--records", text);
    if (options.value("--mean-think", text))
        spec.mean_think = parseCount("--mean-think", text);
    if (options.value("--write-fraction", text))
        spec.write_fraction = parseFraction("--write-fraction", text);
    if (options.value("--hot-cluster", text))
        spec.hot_cluster = static_cast<std::uint32_t>(
            parseCount("--hot-cluster", text));
    if (options.value("--hot-fraction", text))
        spec.hot_fraction = parseFraction("--hot-fraction", text);
    if (options.value("--burst-length", text))
        spec.burst_length = parseCount("--burst-length", text);
    if (options.value("--burst-gap", text))
        spec.burst_gap = parseCount("--burst-gap", text);
    if (options.value("--seed", text))
        spec.seed = parseCount("--seed", text);
    const auto &positionals = options.positionals();
    if (positionals.size() != 2)
        die("synth needs PATTERN and OUT.ctrace (--help)");
    spec.pattern = trace::synthPatternOf(positionals[0]);
    const std::string &out_path = positionals[1];

    trace::WriterOptions writer_options;
    writer_options.synthetic_source = true;
    std::ofstream out = openOut(out_path);
    trace::Writer writer(out, spec.threads,
                         "synth:" + to_string(spec.pattern),
                         writer_options);
    const std::uint64_t written = trace::synthesize(spec, writer);
    writer.finish();
    finishOut(out, out_path);

    std::cout << "synthesized " << written << " "
              << to_string(spec.pattern) << " records ("
              << spec.threads << " threads) to " << out_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::string(argv[1]) == "--help" ||
                      std::string(argv[1]) == "-h")) {
        usage(std::cout);
        return 0;
    }
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string command = argv[1];
    OptionParser options(
        std::vector<std::string>(argv + 2, argv + argc));
    try {
        if (command == "capture")
            return captureCommand(options);
        if (command == "inspect")
            return inspectCommand(options);
        if (command == "synth")
            return synthCommand(options);
    } catch (const sim::FatalError &e) {
        die(e.what());
    }
    std::cerr << "corona-trace: unknown subcommand \"" << command
              << "\"\n\n";
    usage(std::cerr);
    return 2;
}
