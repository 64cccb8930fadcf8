#include "campaign/obs_rollup.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>

#include "campaign/sink.hh"
#include "obs/registry.hh"
#include "sim/logging.hh"

namespace corona::campaign {

namespace {

constexpr const char *rollupMagic = "corona-rollup-v1";

/** One CSV row of a rollup file; fatal on bad quoting. */
std::vector<std::string>
splitRow(const std::string &line, const std::string &what)
{
    std::optional<std::vector<std::string>> fields = splitCsvRow(line);
    if (!fields)
        sim::fatal(what + ": malformed CSV row in rollup");
    return std::move(*fields);
}

std::uint64_t
parseIndex(const std::string &field, const std::string &what)
{
    if (field.empty())
        sim::fatal(what + ": empty index field in rollup");
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(field.c_str(), &end, 10);
    if (end != field.c_str() + field.size())
        sim::fatal(what + ": bad index field in rollup: " + field);
    return value;
}

double
parseValue(const std::string &field, const std::string &what)
{
    if (field.empty())
        sim::fatal(what + ": empty value field in rollup");
    char *end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end != field.c_str() + field.size())
        sim::fatal(what + ": bad value field in rollup: " + field);
    return value;
}

/** The group's rows sorted by run index, deduplicated last-wins: the
 * canonical order write() emits and every aggregate consumes. */
std::vector<const RollupRow *>
canonicalRows(const RollupGroup &group)
{
    std::map<std::size_t, const RollupRow *> by_run;
    for (const RollupRow &row : group.rows)
        by_run[row.run] = &row;
    std::vector<const RollupRow *> rows;
    rows.reserve(by_run.size());
    for (const auto &[run, row] : by_run)
        rows.push_back(row);
    return rows;
}

/** Group pointers sorted by config label. */
std::vector<const RollupGroup *>
canonicalGroups(const std::vector<RollupGroup> &groups)
{
    std::vector<const RollupGroup *> sorted;
    sorted.reserve(groups.size());
    for (const RollupGroup &group : groups)
        sorted.push_back(&group);
    std::sort(sorted.begin(), sorted.end(),
              [](const RollupGroup *a, const RollupGroup *b) {
                  return a->config < b->config;
              });
    return sorted;
}

} // namespace

RollupGroup *
ObsRollup::find(const std::string &config)
{
    for (RollupGroup &group : _groups) {
        if (group.config == config)
            return &group;
    }
    return nullptr;
}

bool
ObsRollup::hasGroup(const std::string &config) const
{
    for (const RollupGroup &group : _groups) {
        if (group.config == config)
            return true;
    }
    return false;
}

void
ObsRollup::addRun(const std::string &config, std::size_t run,
                  sim::Tick tick, const std::vector<std::string> &paths,
                  std::vector<double> values)
{
    RollupGroup *group = find(config);
    if (!group) {
        if (paths.empty())
            sim::fatal("ObsRollup: first run of config \"" + config +
                       "\" arrived without probe paths");
        _groups.push_back(RollupGroup{config, paths, {}});
        group = &_groups.back();
    } else if (!paths.empty() && paths != group->paths) {
        // Two workers can race the first run of a config and both
        // capture paths; identical sets are fine, divergence is a bug.
        sim::fatal("ObsRollup: probe paths changed within config \"" +
                   config + "\"");
    }
    if (values.size() != group->paths.size())
        sim::fatal("ObsRollup: run " + std::to_string(run) + " of \"" +
                   config + "\" captured " +
                   std::to_string(values.size()) + " values for " +
                   std::to_string(group->paths.size()) + " probes");
    group->rows.push_back(RollupRow{run, tick, std::move(values)});
}

void
ObsRollup::merge(const ObsRollup &other)
{
    for (const RollupGroup &theirs : other._groups) {
        for (const RollupRow &row : theirs.rows)
            addRun(theirs.config, row.run, row.tick, theirs.paths,
                   row.values);
        if (theirs.rows.empty() && !hasGroup(theirs.config))
            _groups.push_back(theirs);
    }
}

std::size_t
ObsRollup::runCount() const
{
    std::size_t count = 0;
    for (const RollupGroup &group : _groups)
        count += group.rows.size();
    return count;
}

void
ObsRollup::write(std::ostream &os) const
{
    os << rollupMagic << '\n';
    for (const RollupGroup *group : canonicalGroups(_groups)) {
        os << "group," << group->config << '\n';
        os << "run,tick";
        for (const std::string &path : group->paths)
            os << ',' << path;
        os << '\n';
        for (const RollupRow *row : canonicalRows(*group)) {
            os << row->run << ',' << row->tick;
            for (const double value : row->values)
                os << ',' << obs::formatValue(value);
            os << '\n';
        }
    }
}

ObsRollup
ObsRollup::read(std::istream &is, const std::string &what)
{
    std::string line;
    if (!std::getline(is, line) || line != rollupMagic)
        sim::fatal(what + ": not a rollup file (bad magic line)");

    ObsRollup rollup;
    RollupGroup *group = nullptr;
    while (std::getline(is, line)) {
        if (line.empty())
            sim::fatal(what + ": blank line in rollup");
        if (line.compare(0, 6, "group,") == 0) {
            const std::string config = line.substr(6);
            if (config.empty() || rollup.hasGroup(config))
                sim::fatal(what + ": bad or repeated rollup group \"" +
                           config + "\"");
            if (!std::getline(is, line) ||
                line.compare(0, 8, "run,tick") != 0)
                sim::fatal(what + ": rollup group \"" + config +
                           "\" lacks its header line");
            std::vector<std::string> header = splitRow(line, what);
            rollup._groups.push_back(RollupGroup{
                config,
                {header.begin() + 2, header.end()},
                {}});
            group = &rollup._groups.back();
            continue;
        }
        if (!group)
            sim::fatal(what + ": rollup data before any group line");
        const std::vector<std::string> fields = splitRow(line, what);
        if (fields.size() != group->paths.size() + 2)
            sim::fatal(what + ": rollup row width mismatch in \"" +
                       group->config + "\"");
        RollupRow row;
        row.run = static_cast<std::size_t>(parseIndex(fields[0], what));
        row.tick = parseIndex(fields[1], what);
        row.values.reserve(group->paths.size());
        for (std::size_t i = 2; i < fields.size(); ++i)
            row.values.push_back(parseValue(fields[i], what));
        group->rows.push_back(std::move(row));
    }
    return rollup;
}

ObsRollup
readRollupFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        sim::fatal("cannot open rollup file: " + path);
    return ObsRollup::read(is, path);
}

void
writeRollupFile(const std::string &path, const ObsRollup &rollup)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    if (!os)
        sim::fatal("cannot open rollup output file: " + path);
    rollup.write(os);
    os.flush();
    if (!os)
        sim::fatal("rollup write failed: " + path);
}

namespace {

/** One aggregated per-entity series for the top-N lists. */
struct EntityMean
{
    std::uint64_t id = 0;
    double value = 0.0;  ///< Mean of the ranked metric across runs.
    double extra = 0.0;  ///< Companion column (messages, ...).
};

/**
 * Mean across canonical rows of values[probe] transformed by @p fn
 * (row is passed for tick-normalised metrics).
 */
template <typename Fn>
double
meanOver(const std::vector<const RollupRow *> &rows, Fn fn)
{
    if (rows.empty())
        return 0.0;
    double sum = 0.0;
    for (const RollupRow *row : rows)
        sum += fn(*row);
    return sum / static_cast<double>(rows.size());
}

/** Parse "<prefix><id>/<leaf>" -> id, or nullopt. */
bool
entityId(const std::string &path, const std::string &prefix,
         const std::string &leaf, std::uint64_t &id)
{
    if (path.compare(0, prefix.size(), prefix) != 0)
        return false;
    const std::size_t slash = path.find('/', prefix.size());
    if (slash == std::string::npos || path.substr(slash + 1) != leaf)
        return false;
    const std::string digits = path.substr(prefix.size(),
                                           slash - prefix.size());
    if (digits.empty())
        return false;
    char *end = nullptr;
    id = std::strtoull(digits.c_str(), &end, 10);
    return end == digits.c_str() + digits.size();
}

void
sortTop(std::vector<EntityMean> &entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const EntityMean &a, const EntityMean &b) {
                  if (a.value != b.value)
                      return a.value > b.value;
                  return a.id < b.id;
              });
}

double
percentile95(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest-rank: the smallest value with >= 95% of samples at or
    // below it.
    const std::size_t rank = (values.size() * 95 + 99) / 100;
    return values[rank == 0 ? 0 : rank - 1];
}

} // namespace

void
writeRollupReport(std::ostream &os, const ObsRollup &rollup,
                  const RollupReportOptions &options)
{
    const auto groups = canonicalGroups(rollup.groups());
    std::size_t total_rows = 0;
    for (const RollupGroup *group : groups)
        total_rows += canonicalRows(*group).size();
    os << "campaign rollup: " << groups.size() << " group"
       << (groups.size() == 1 ? "" : "s") << ", " << total_rows
       << " run" << (total_rows == 1 ? "" : "s") << '\n';

    for (const RollupGroup *group : groups) {
        const auto rows = canonicalRows(*group);
        os << "group " << group->config << ": runs=" << rows.size()
           << " probes=" << group->paths.size() << '\n';
        if (rows.empty())
            continue;

        // Crossbar channels ranked by mean busy fraction
        // (busy_ticks / end tick), with mean message count alongside.
        std::vector<EntityMean> channels;
        std::vector<std::size_t> msg_probe(group->paths.size(), 0);
        std::map<std::uint64_t, std::size_t> channel_messages;
        for (std::size_t p = 0; p < group->paths.size(); ++p) {
            std::uint64_t id = 0;
            if (entityId(group->paths[p], "xbar/ch/", "messages", id))
                channel_messages[id] = p;
        }
        for (std::size_t p = 0; p < group->paths.size(); ++p) {
            std::uint64_t id = 0;
            if (!entityId(group->paths[p], "xbar/ch/", "busy_ticks", id))
                continue;
            EntityMean entry;
            entry.id = id;
            entry.value = meanOver(rows, [p](const RollupRow &row) {
                return row.tick > 0
                           ? row.values[p] /
                                 static_cast<double>(row.tick)
                           : 0.0;
            });
            const auto msg = channel_messages.find(id);
            if (msg != channel_messages.end()) {
                const std::size_t mp = msg->second;
                entry.extra = meanOver(rows, [mp](const RollupRow &row) {
                    return row.values[mp];
                });
            }
            channels.push_back(entry);
        }
        if (!channels.empty()) {
            sortTop(channels);
            os << "  top channels (mean busy_frac):\n";
            const std::size_t n = std::min(options.top, channels.size());
            for (std::size_t i = 0; i < n; ++i) {
                const EntityMean &ch = channels[i];
                os << "    " << (i + 1) << ". xbar/ch/" << ch.id
                   << " busy_frac=" << obs::formatValue(ch.value)
                   << " messages=" << obs::formatValue(ch.extra)
                   << '\n';
            }
            os << "  utilization histogram (channel mean busy_frac, "
                  "10 bins over [0,1]):\n";
            std::size_t bins[10] = {};
            for (const EntityMean &ch : channels) {
                auto bin = static_cast<std::size_t>(ch.value * 10.0);
                bins[std::min<std::size_t>(bin, 9)] += 1;
            }
            for (std::size_t b = 0; b < 10; ++b) {
                os << "    [0." << b << ",";
                if (b == 9)
                    os << "1.0]";
                else
                    os << "0." << (b + 1) << ")";
                os << ' ' << bins[b] << '\n';
            }
        }

        // Mesh routers ranked by mean injection-queue depth.
        std::vector<EntityMean> routers;
        for (std::size_t p = 0; p < group->paths.size(); ++p) {
            std::uint64_t id = 0;
            if (!entityId(group->paths[p], "mesh/r/", "injection_depth",
                          id))
                continue;
            EntityMean entry;
            entry.id = id;
            entry.value = meanOver(rows, [p](const RollupRow &row) {
                return row.values[p];
            });
            routers.push_back(entry);
        }
        if (!routers.empty()) {
            sortTop(routers);
            os << "  top routers (mean injection_depth):\n";
            const std::size_t n = std::min(options.top, routers.size());
            for (std::size_t i = 0; i < n; ++i) {
                os << "    " << (i + 1) << ". mesh/r/" << routers[i].id
                   << " injection_depth="
                   << obs::formatValue(routers[i].value) << '\n';
            }
        }

        if (!options.probes.empty()) {
            os << "  probe aggregates (prefix \"" << options.probes
               << "\"):\n";
            for (std::size_t p = 0; p < group->paths.size(); ++p) {
                const std::string &path = group->paths[p];
                if (path.compare(0, options.probes.size(),
                                 options.probes) != 0)
                    continue;
                std::vector<double> samples;
                samples.reserve(rows.size());
                for (const RollupRow *row : rows)
                    samples.push_back(row->values[p]);
                double sum = 0.0;
                double lo = samples.front();
                double hi = samples.front();
                for (const double v : samples) {
                    sum += v;
                    lo = std::min(lo, v);
                    hi = std::max(hi, v);
                }
                os << "    " << path << " count=" << samples.size()
                   << " mean="
                   << obs::formatValue(
                          sum / static_cast<double>(samples.size()))
                   << " min=" << obs::formatValue(lo)
                   << " max=" << obs::formatValue(hi) << " p95="
                   << obs::formatValue(percentile95(samples)) << '\n';
            }
        }
    }
}

} // namespace corona::campaign
