#include "trace/replayer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "corona/knobs.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace corona::workload {

TraceReplayer::TraceReplayer(std::string path,
                             TraceReplayOptions options)
    : _path(std::move(path)), _options(options),
      _file(_path, std::ios::binary)
{
    if (!(_options.time_scale > 0.0))
        sim::fatal("trace replay \"" + _path +
                   "\": time_scale must be > 0");
    if (!_file)
        sim::fatal("trace replay: cannot read \"" + _path + "\"");
    _reader.emplace(_file, _path);
    const std::size_t slots = _options.threads != 0
                                  ? _options.threads
                                  : _reader->info().threads;
    _cursors.resize(slots);
}

std::string
TraceReplayer::name() const
{
    if (!_options.label.empty())
        return _options.label;
    if (!_reader->info().name.empty())
        return _reader->info().name;
    return "Trace";
}

MissRequest
TraceReplayer::next(std::size_t thread, sim::Tick, sim::Rng &)
{
    Cursor &cursor = _cursors.at(thread);
    const auto trace_thread = static_cast<std::uint32_t>(
        thread % _reader->info().threads);
    const std::vector<std::uint32_t> &chain =
        _reader->threadBlocks(trace_thread);
    // A thread with no records — or one past its loop budget — idles
    // forever (the harness bounds total requests anyway).
    MissRequest idle;
    idle.think_time = sim::oneSecond;
    if (chain.empty() || cursor.exhausted)
        return idle;

    if (cursor.pos == cursor.block.size()) {
        if (cursor.next_chain == chain.size()) {
            ++cursor.passes;
            if (_options.loop != 0 &&
                cursor.passes >= _options.loop) {
                cursor.exhausted = true;
                _resident -= cursor.block.size();
                cursor.block.clear();
                cursor.block.shrink_to_fit();
                return idle;
            }
            cursor.next_chain = 0;
        }
        _resident -= cursor.block.size();
        _reader->readBlock(chain[cursor.next_chain], cursor.block);
        ++cursor.next_chain;
        cursor.pos = 0;
        _resident += cursor.block.size();
        _maxResident = std::max(_maxResident, _resident);
    }

    const TraceRecord &record = cursor.block[cursor.pos++];
    MissRequest req;
    req.think_time =
        _options.time_scale == 1.0
            ? record.think_time
            : static_cast<sim::Tick>(std::llround(
                  static_cast<double>(record.think_time) *
                  _options.time_scale));
    req.line = record.line;
    req.home = static_cast<topology::ClusterId>(record.home);
    req.write = record.write != 0;
    return req;
}

std::uint64_t
TraceReplayer::paperRequests() const
{
    return _reader->info().records;
}

double
TraceReplayer::offeredBytesPerSecond() const
{
    return _reader->info().offered_bytes_per_second;
}

std::size_t
TraceReplayer::threads() const
{
    return _cursors.size();
}

void
TraceReplayer::reset()
{
    for (Cursor &cursor : _cursors)
        cursor = Cursor{};
    _resident = 0;
}

} // namespace corona::workload

namespace corona::trace {

namespace {

constexpr const char *kPrefix = "trace:";

[[noreturn]] void
badReplayKnob(const std::string &name, const std::string &key,
              const std::string &value, const char *expected)
{
    sim::fatal("workload \"" + name + "\": knob " + key + " expects " +
               expected + ", got \"" + value + "\"");
}

} // namespace

bool
isTraceExpression(const std::string &name)
{
    return name.rfind(kPrefix, 0) == 0;
}

ReplayAxis
replayAxis(const std::string &name,
           const std::vector<workload::WorkloadKnob> &knobs)
{
    if (!isTraceExpression(name))
        sim::fatal("replayAxis: \"" + name +
                   "\" is not a trace: expression");
    const std::string path = name.substr(std::strlen(kPrefix));
    if (path.empty())
        sim::fatal("workload \"" + name +
                   "\": trace: needs a file path "
                   "(workload = trace:path.ctrace)");

    workload::TraceReplayOptions options;
    for (const workload::WorkloadKnob &knob : knobs) {
        if (knob.first == "time_scale") {
            const auto parsed = core::parseStrictDouble(knob.second);
            if (!parsed || !(*parsed > 0.0))
                badReplayKnob(name, knob.first, knob.second,
                              "a decimal > 0");
            options.time_scale = *parsed;
        } else if (knob.first == "threads") {
            const auto parsed = core::parsePositiveCount(knob.second);
            if (!parsed)
                badReplayKnob(name, knob.first, knob.second,
                              "a strictly positive decimal integer");
            options.threads = static_cast<std::size_t>(*parsed);
        } else if (knob.first == "loop") {
            const auto parsed = core::parseUnsigned(knob.second);
            if (!parsed)
                badReplayKnob(name, knob.first, knob.second,
                              "an unsigned decimal integer "
                              "(0 loops forever)");
            options.loop = *parsed;
        } else if (knob.first == "label") {
            if (knob.second.empty())
                badReplayKnob(name, knob.first, knob.second,
                              "a non-empty axis label");
            options.label = knob.second;
        } else {
            sim::fatal("workload \"" + name + "\": unknown knob \"" +
                       knob.first +
                       "\" (valid knobs: " + kReplayKnobsHelp + ")");
        }
    }

    // Validate the file eagerly — header and index, with offsets —
    // so a bad path or corrupt trace dies at scenario resolve time,
    // not on a worker thread mid-campaign.
    const TraceInfo info = readTraceInfo(path);

    ReplayAxis axis;
    axis.label = options.label;
    axis.synthetic = info.synthetic_source;
    axis.threads = options.threads != 0 ? options.threads : info.threads;
    axis.make = [path, options] {
        return std::unique_ptr<workload::Workload>(
            std::make_unique<workload::TraceReplayer>(path, options));
    };
    return axis;
}

} // namespace corona::trace
