#include "corona/knobs.hh"

#include <charconv>
#include <cmath>
#include <limits>

#include "obs/registry.hh"
#include "sim/logging.hh"

namespace corona::core {

namespace {

/** Apply @p key from @p knobs to @p target; @p what names the table in
 * diagnostics. */
template <typename Target>
void
applyKnob(std::span<const Knob<Target>> knobs, const char *what,
          Target &target, const std::string &key, const std::string &value)
{
    for (const Knob<Target> &knob : knobs) {
        if (key != knob.key)
            continue;
        const std::string expected = knob.parse(target, value);
        if (!expected.empty()) {
            sim::fatal(std::string(what) + ": knob " + key + " expects " +
                       expected + ", got \"" + value + "\"");
        }
        return;
    }
    std::string names;
    for (const Knob<Target> &knob : knobs) {
        if (!names.empty())
            names += ", ";
        names += knob.key;
    }
    sim::fatal(std::string(what) + ": unknown knob \"" + key +
               "\" (valid knobs: " + names + ")");
}

/** A decimal integer no smaller than @p min that fits @p field. */
template <typename T>
std::string
parseInteger(T &field, const std::string &text, std::uint64_t min)
{
    const auto parsed = parseUnsigned(text);
    if (!parsed || *parsed < min) {
        return min == 0 ? "an unsigned decimal integer"
                        : "a strictly positive decimal integer";
    }
    if (*parsed > std::numeric_limits<T>::max()) {
        return "an integer of at most " +
               std::to_string(std::numeric_limits<T>::max());
    }
    field = static_cast<T>(*parsed);
    return {};
}

template <typename T>
std::string
parseCount(T &field, const std::string &text)
{
    return parseInteger(field, text, 0);
}

template <typename T>
std::string
parsePositive(T &field, const std::string &text)
{
    return parseInteger(field, text, 1);
}

std::string
parseClusters(std::size_t &field, const std::string &text)
{
    std::size_t clusters = 0;
    if (std::string expected = parsePositive(clusters, text);
        !expected.empty())
        return expected;
    // topology::Geometry requires a square grid; reject here so a bad
    // scenario dies at resolve time, not on a worker thread.
    const auto radix = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(clusters))));
    if (radix * radix != clusters)
        return "a perfect-square cluster count";
    field = clusters;
    return {};
}

std::string
parsePositiveDouble(double &field, const std::string &text)
{
    const auto parsed = parseStrictDouble(text);
    if (!parsed || *parsed <= 0.0)
        return "a positive number";
    field = *parsed;
    return {};
}

/** One of the spellings in @p names ("a or b" on failure). */
template <typename T, std::size_t N>
std::string
parseName(T &field, const std::string &text,
          const std::pair<T, const char *> (&names)[N])
{
    std::string expected;
    for (const auto &[value, name] : names) {
        if (text == name) {
            field = value;
            return {};
        }
        if (!expected.empty())
            expected += " or ";
        expected += name;
    }
    return expected;
}

template <typename T, std::size_t N>
std::string
formatName(T field, const std::pair<T, const char *> (&names)[N])
{
    for (const auto &[value, name] : names) {
        if (value == field)
            return name;
    }
    return "?";
}

/** HierarchyConfig::write_through spellings (the write_policy knob). */
constexpr std::pair<bool, const char *> writePolicyNames[] = {
    {false, "writeback"},
    {true, "writethrough"},
};

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // Would overflow.
        value = value * 10 + digit;
    }
    return value;
}

std::optional<double>
parseStrictDouble(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    double value = 0.0;
    const auto res = std::from_chars(text.data(),
                                     text.data() + text.size(), value);
    if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
        return std::nullopt;
    if (!std::isfinite(value))
        return std::nullopt;
    return value;
}

std::optional<bool>
parseOnOff(std::string_view text)
{
    if (text == "on" || text == "true" || text == "1")
        return true;
    if (text == "off" || text == "false" || text == "0")
        return false;
    return std::nullopt;
}

// ------------------------------------------------------- SimParams

namespace {

constexpr Knob<SimParams> simParamsKnobTable[] = {
    {"requests", "primary misses to simulate (positive)",
     [](auto &p, auto &v) { return parsePositive(p.requests, v); },
     [](auto &p) { return std::to_string(p.requests); }},
    {"warmup_requests", "primary misses issued before measurement starts",
     [](auto &p, auto &v) { return parseCount(p.warmup_requests, v); },
     [](auto &p) { return std::to_string(p.warmup_requests); }},
    {"seed", "base RNG seed",
     [](auto &p, auto &v) { return parseCount(p.seed, v); },
     [](auto &p) { return std::to_string(p.seed); }},
};

} // namespace

std::span<const Knob<SimParams>>
simParamsKnobs()
{
    return simParamsKnobTable;
}

void
applySimParamsKnob(SimParams &params, const std::string &key,
                   const std::string &value)
{
    applyKnob(simParamsKnobs(), "SimParams override", params, key, value);
}

// ---------------------------------------------- SystemConfig registry

namespace {

struct NamedPoint
{
    const char *name;
    NetworkKind network;
    MemoryKind memory;
};

constexpr NamedPoint namedPoints[] = {
    {"LMesh/ECM", NetworkKind::LMesh, MemoryKind::ECM},
    {"HMesh/ECM", NetworkKind::HMesh, MemoryKind::ECM},
    {"LMesh/OCM", NetworkKind::LMesh, MemoryKind::OCM},
    {"HMesh/OCM", NetworkKind::HMesh, MemoryKind::OCM},
    {"XBar/OCM", NetworkKind::XBar, MemoryKind::OCM},
    {"Ideal/OCM", NetworkKind::Ideal, MemoryKind::OCM},
    {"Ideal/ECM", NetworkKind::Ideal, MemoryKind::ECM},
};

} // namespace

const std::vector<std::string> &
paperConfigNames()
{
    static const std::vector<std::string> names = {
        "LMesh/ECM", "HMesh/ECM", "LMesh/OCM", "HMesh/OCM",
        "XBar/OCM",
    };
    return names;
}

const std::vector<std::string> &
configNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all;
        for (const NamedPoint &point : namedPoints)
            all.push_back(point.name);
        all.push_back("paper");
        return all;
    }();
    return names;
}

SystemConfig
namedConfig(const std::string &name)
{
    for (const NamedPoint &point : namedPoints) {
        if (name == point.name)
            return makeConfig(point.network, point.memory);
    }
    std::string known;
    for (const NamedPoint &point : namedPoints) {
        if (!known.empty())
            known += ", ";
        known += point.name;
    }
    sim::fatal("unknown configuration \"" + name +
               "\" (known configurations: " + known +
               "; \"paper\" expands to the five paper points)");
}

std::vector<SystemConfig>
paperConfigs()
{
    std::vector<SystemConfig> configs;
    for (const std::string &name : paperConfigNames())
        configs.push_back(namedConfig(name));
    return configs;
}

namespace {

std::string
baseName(const SystemConfig &config)
{
    return to_string(config.network) + "/" + to_string(config.memory);
}

constexpr Knob<SystemConfig> configKnobTable[] = {
    {"clusters", "cluster count (perfect square)",
     [](auto &c, auto &v) { return parseClusters(c.clusters, v); },
     [](auto &c) { return std::to_string(c.clusters); }},
    {"threads_per_cluster", "hardware threads per cluster",
     [](auto &c, auto &v) { return parsePositive(c.threads_per_cluster, v); },
     [](auto &c) { return std::to_string(c.threads_per_cluster); }},
    {"mshrs_per_cluster", "per-cluster MSHR file capacity",
     [](auto &c, auto &v) { return parsePositive(c.mshrs_per_cluster, v); },
     [](auto &c) { return std::to_string(c.mshrs_per_cluster); }},
    {"thread_window", "per-thread outstanding-miss window",
     [](auto &c, auto &v) { return parsePositive(c.thread_window, v); },
     [](auto &c) { return std::to_string(c.thread_window); }},
    {"local_hop", "hub traversal latency for local accesses, ticks",
     [](auto &c, auto &v) { return parseCount(c.local_hop, v); },
     [](auto &c) { return std::to_string(c.local_hop); }},
    {"memory_bandwidth_scale",
     "multiplier on every controller's off-stack bandwidth",
     [](auto &c, auto &v) {
         return parsePositiveDouble(c.memory_bandwidth_scale, v);
     },
     [](auto &c) { return obs::formatValue(c.memory_bandwidth_scale); }},
    {"bytes_per_clock", "crossbar channel bytes per clock",
     [](auto &c, auto &v) {
         return parsePositive(c.xbar_channel.bytes_per_clock, v);
     },
     [](auto &c) { return std::to_string(c.xbar_channel.bytes_per_clock); }},
    {"sink_buffer_depth", "crossbar home input buffer, messages",
     [](auto &c, auto &v) {
         return parsePositive(c.xbar_channel.sink_buffer_depth, v);
     },
     [](auto &c) {
         return std::to_string(c.xbar_channel.sink_buffer_depth);
     }},
    {"loop_clocks", "crossbar serpentine loop time, clocks",
     [](auto &c, auto &v) {
         return parseCount(c.xbar_channel.loop_clocks, v);
     },
     [](auto &c) { return std::to_string(c.xbar_channel.loop_clocks); }},
    {"max_batch", "messages modulated per token grant",
     [](auto &c, auto &v) {
         return parsePositive(c.xbar_channel.max_batch, v);
     },
     [](auto &c) { return std::to_string(c.xbar_channel.max_batch); }},
    {"token_node_pause",
     "extra per-cluster token dwell, ticks (0 = flying token)",
     [](auto &c, auto &v) {
         return parseCount(c.xbar_channel.token_node_pause, v);
     },
     [](auto &c) {
         return std::to_string(c.xbar_channel.token_node_pause);
     }},
    {"frontend", "injection front end: miss-stream | coherent",
     [](auto &c, auto &v) { return parseName(c.frontend, v, frontendNames); },
     [](auto &c) { return formatName(c.frontend, frontendNames); }},
    {"l1_kib", "per-cluster L1 capacity, KiB (0 = no L1)",
     [](auto &c, auto &v) { return parseCount(c.hierarchy.l1_kib, v); },
     [](auto &c) { return std::to_string(c.hierarchy.l1_kib); }},
    {"l1_assoc", "L1 associativity",
     [](auto &c, auto &v) { return parsePositive(c.hierarchy.l1_assoc, v); },
     [](auto &c) { return std::to_string(c.hierarchy.l1_assoc); }},
    {"l2_kib", "per-cluster L2 capacity, KiB (0 = no L2)",
     [](auto &c, auto &v) { return parseCount(c.hierarchy.l2_kib, v); },
     [](auto &c) { return std::to_string(c.hierarchy.l2_kib); }},
    {"l2_assoc", "L2 associativity",
     [](auto &c, auto &v) { return parsePositive(c.hierarchy.l2_assoc, v); },
     [](auto &c) { return std::to_string(c.hierarchy.l2_assoc); }},
    {"cache_line", "cache line size, bytes",
     [](auto &c, auto &v) {
         return parsePositive(c.hierarchy.line_bytes, v);
     },
     [](auto &c) { return std::to_string(c.hierarchy.line_bytes); }},
    {"write_policy", "store policy: writeback | writethrough",
     [](auto &c, auto &v) {
         return parseName(c.hierarchy.write_through, v, writePolicyNames);
     },
     [](auto &c) {
         return formatName(c.hierarchy.write_through, writePolicyNames);
     }},
    {"inval_policy", "invalidation transport: unicast | broadcast",
     [](auto &c, auto &v) {
         return parseName(c.inval_policy, v, coherence::invalPolicyNames);
     },
     [](auto &c) {
         return formatName(c.inval_policy, coherence::invalPolicyNames);
     }},
    {"broadcast_threshold",
     "minimum sharer count that prefers the broadcast bus",
     [](auto &c, auto &v) { return parseCount(c.broadcast_threshold, v); },
     [](auto &c) { return std::to_string(c.broadcast_threshold); }},
    {"label", "display label / campaign axis name",
     [](auto &c, auto &v) {
         c.label = v;
         return std::string();
     },
     // An unset label and "Net/Mem" name the same point.
     [](auto &c) -> std::string {
         if (c.label.empty() || c.label == baseName(c))
             return {};
         if (c.label.find(' ') != std::string::npos)
             return '"' + c.label + '"';
         return c.label;
     }},
};

} // namespace

std::span<const Knob<SystemConfig>>
configKnobs()
{
    return configKnobTable;
}

void
applyConfigKnob(SystemConfig &config, const std::string &key,
                const std::string &value)
{
    applyKnob(configKnobs(), "config knob", config, key, value);
}

std::string
configKnobExpression(const SystemConfig &config)
{
    const SystemConfig defaults =
        makeConfig(config.network, config.memory);
    std::string expression = baseName(config);
    for (const Knob<SystemConfig> &knob : configKnobs()) {
        const std::string value = knob.format(config);
        if (value != knob.format(defaults))
            expression += std::string(" ") + knob.key + "=" + value;
    }
    return expression;
}

} // namespace corona::core
