#include "campaign/sink.hh"

#include <cmath>
#include <ostream>
#include <string>

#include "obs/registry.hh"
#include "sim/logging.hh"

namespace corona::campaign {

std::optional<std::vector<std::string>>
splitCsvRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (quoted) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += ch;
            }
        } else if (ch == '"') {
            if (!field.empty())
                return std::nullopt; // Quote mid-field.
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else {
            field += ch;
        }
    }
    if (quoted)
        return std::nullopt; // Unterminated quote.
    fields.push_back(std::move(field));
    return fields;
}

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (const char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': escaped += "\\\""; break;
          case '\\': escaped += "\\\\"; break;
          case '\n': escaped += "\\n"; break;
          case '\r': escaped += "\\r"; break;
          case '\t': escaped += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                constexpr const char *hex = "0123456789abcdef";
                escaped += "\\u00";
                escaped += hex[(ch >> 4) & 0xF];
                escaped += hex[ch & 0xF];
            } else {
                escaped += ch;
            }
        }
    }
    return escaped;
}

/** A double as a JSON value: nan/inf are not JSON numbers (a bare
 * "nan" makes the whole line unparseable), so non-finite metrics
 * serialise as null. The CSV/checkpoint dialect keeps the nan/inf
 * spellings — std::from_chars round-trips them exactly. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    return obs::formatValue(value);
}

} // namespace

void
ResultSink::begin(const CampaignSpec &, std::size_t)
{
}

void
ResultSink::end()
{
}

const char *
CsvSink::header()
{
    static const std::string header = [] {
        std::string text = "run,workload,config,override,seed,status,error";
        for (const core::MetricField &field : core::metricFields) {
            text += ',';
            text += field.name;
        }
        return text;
    }();
    return header.c_str();
}

namespace {

/** Flatten newlines so every row occupies exactly one line: the
 * checkpoint reader is line-based, and a multi-line quoted field
 * (e.g. an exception message) would make the file unparseable. */
std::string
singleLine(std::string text)
{
    for (char &ch : text) {
        if (ch == '\n' || ch == '\r')
            ch = ' ';
    }
    return text;
}

/** One metric value in the CSV/checkpoint dialect: counts in
 * decimal, doubles in shortest round-trip form (nan/inf spelled
 * out). */
std::string
metricText(const core::MetricField &field, const core::RunMetrics &m)
{
    if (field.kind == core::MetricField::Kind::Count)
        return std::to_string(m.*field.count);
    return obs::formatValue(m.*field.real);
}

} // namespace

std::string
csvRow(const RunRecord &record)
{
    std::string row;
    row += std::to_string(record.index);
    row += ',';
    row += csvEscape(singleLine(record.workload));
    row += ',';
    row += csvEscape(singleLine(record.config));
    row += ',';
    row += csvEscape(singleLine(record.override_label));
    row += ',';
    row += std::to_string(record.seed);
    row += ',';
    row += record.ok ? "ok" : "failed";
    row += ',';
    row += csvEscape(singleLine(record.error));
    for (const core::MetricField &field : core::metricFields) {
        row += ',';
        row += metricText(field, record.metrics);
    }
    return row;
}

void
CsvSink::begin(const CampaignSpec &, std::size_t)
{
    _os << header() << "\n";
}

void
CsvSink::consume(const RunRecord &record)
{
    _os << csvRow(record) << "\n";
}

void
JsonLinesSink::consume(const RunRecord &record)
{
    _os << "{\"run\":" << record.index << ",\"workload\":\""
        << jsonEscape(record.workload) << "\",\"config\":\""
        << jsonEscape(record.config) << "\",\"override\":\""
        << jsonEscape(record.override_label) << "\",\"seed\":"
        << record.seed << ",\"status\":\""
        << (record.ok ? "ok" : "failed") << "\",\"error\":\""
        << jsonEscape(record.error) << '"';
    for (const core::MetricField &field : core::metricFields) {
        _os << ",\"" << field.name << "\":"
            << (field.kind == core::MetricField::Kind::Real
                    ? jsonNumber(record.metrics.*field.real)
                    : metricText(field, record.metrics));
    }
    _os << "}\n";
}

void
MemorySink::begin(const CampaignSpec &spec, std::size_t total_runs)
{
    _records.clear();
    _records.reserve(total_runs);
    _workloads = spec.workloads.size();
    _configs = spec.configs.size();
    _seeds = spec.seeds.empty() ? 1 : spec.seeds.size();
    _overrides = spec.overrides.empty() ? 1 : spec.overrides.size();
}

void
MemorySink::consume(const RunRecord &record)
{
    _records.push_back(record);
}

std::vector<std::vector<core::RunMetrics>>
MemorySink::grid() const
{
    if (_seeds != 1 || _overrides != 1)
        sim::fatal("MemorySink::grid: campaign has replicate seed or "
                   "override axes; use records() instead");
    if (_records.size() != _workloads * _configs)
        sim::fatal("MemorySink::grid: incomplete campaign (" +
                   std::to_string(_records.size()) + " of " +
                   std::to_string(_workloads * _configs) + " runs)");

    std::vector<std::vector<core::RunMetrics>> grid(_workloads);
    for (auto &row : grid)
        row.resize(_configs);
    for (const RunRecord &record : _records) {
        if (!record.ok)
            sim::fatal("MemorySink::grid: run " +
                       std::to_string(record.index) + " (" +
                       record.workload + " on " + record.config +
                       ") failed: " + record.error);
        grid[record.workload_index][record.config_index] =
            record.metrics;
    }
    return grid;
}

} // namespace corona::campaign
