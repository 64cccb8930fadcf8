/**
 * @file
 * Central knob tables: named SystemConfig points and data-driven
 * SimParams / SystemConfig mutation.
 *
 * Scenario files describe experiments as text, so every tunable the
 * engine exposes must be reachable by (name, value) pairs instead of
 * C++ closures. This header declares those names once: the
 * named-configuration registry ("XBar/OCM", "paper", ...), one Knob
 * row per SystemConfig knob (clusters, memory_bandwidth_scale,
 * token_node_pause, ...) and one per SimParams knob (requests,
 * warmup_requests, seed). A row holds the key, a one-line help text
 * for readers of the table, a parser into its field and a formatter
 * out of it. Applying a knob, listing the valid keys and serialising a
 * config back to text (configKnobExpression) all loop over the rows;
 * the scenario file's [scenario], [execution] and [observability]
 * keys are rows of the same shape, built on the same parsers.
 * Appliers are strict — an unknown knob or a malformed value is fatal,
 * never silently ignored.
 */

#ifndef CORONA_CORONA_KNOBS_HH
#define CORONA_CORONA_KNOBS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "corona/config.hh"
#include "corona/simulation.hh"

namespace corona::core {

/** Strict decimal uint64 (leading/trailing garbage rejected; zero
 * allowed, unlike parsePositiveCount). */
std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/** Strict finite double (full-string match, no inf/nan). */
std::optional<double> parseStrictDouble(std::string_view text);

/** Strict boolean: on/off, true/false, 1/0. */
std::optional<bool> parseOnOff(std::string_view text);

/** One knob of @p Target, declared once. */
template <typename Target>
struct Knob
{
    const char *key;
    const char *help;
    /** Parse @p value into the knob's field: empty on success, else
     * what the value should have been ("a positive number"); a
     * rejected value leaves the field as it was. */
    std::string (*parse)(Target &target, const std::string &value);
    /** The field as expression text. */
    std::string (*format)(const Target &target);
};

/** Row parsers: each stores a valid @p text into @p field and returns
 * empty, or returns what the text should have been and leaves the
 * field as it was. */

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

/** The spelling of @p field in @p names ("?" when absent). */
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

// ------------------------------------------------------- SimParams

/** The SimParams knobs scenario overrides may set. */
std::span<const Knob<SimParams>> simParamsKnobs();

/** Apply one knob; fatal on an unknown key or malformed value. */
void applySimParamsKnob(SimParams &params, const std::string &key,
                        const std::string &value);

// ---------------------------------------------- SystemConfig registry

/** Names of the five paper configurations, Figure 8 legend order. */
const std::vector<std::string> &paperConfigNames();

/** Every registered configuration name: the five paper points, the
 * Ideal/{OCM,ECM} references, and the "paper" group alias. */
const std::vector<std::string> &configNames();

/**
 * Build the named configuration point. Accepts the "Net/Mem" names
 * ("XBar/OCM", "HMesh/ECM", "Ideal/OCM", ...); fatal on anything
 * else. The "paper" group alias is handled by callers that accept
 * config lists (it expands to five configs, not one).
 */
SystemConfig namedConfig(const std::string &name);

/** The five paper configurations, namedConfig() over
 * paperConfigNames(). */
std::vector<SystemConfig> paperConfigs();

/** The SystemConfig knobs config expressions may set. */
std::span<const Knob<SystemConfig>> configKnobs();

/** Apply one knob; fatal on an unknown key or malformed value. */
void applyConfigKnob(SystemConfig &config, const std::string &key,
                     const std::string &value);

/**
 * Serialise @p config as a resolvable text expression:
 * "Net/Mem knob=value ..." listing, in table order, exactly the knobs
 * whose formatted value differs from the formatted makeConfig(network,
 * memory) default; label last (quoted when it contains spaces, omitted
 * when it equals "Net/Mem"). Resolving the expression reproduces every
 * knob-covered field, so tools can ship a programmatically built
 * config (e.g. a design-space point) to a worker as text.
 */
std::string configKnobExpression(const SystemConfig &config);

} // namespace corona::core

#endif // CORONA_CORONA_KNOBS_HH
