#include "campaign/aggregate.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>

#include "sim/logging.hh"

namespace corona::campaign {

namespace {

constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(SummaryMetric::Count);

/** metricFields indices of the summarised entries, in SummaryMetric
 * order. */
constexpr std::array<std::size_t, kMetricCount> kSummarised = [] {
    std::array<std::size_t, kMetricCount> out{};
    std::size_t n = 0;
    for (std::size_t i = 0; i < core::metricFields.size(); ++i) {
        if (core::metricFields[i].summarised)
            out.at(n++) = i;
    }
    return out;
}();
static_assert(std::ranges::all_of(kSummarised, [](std::size_t i) {
                  const core::MetricField &field = core::metricFields[i];
                  return field.summarised &&
                         field.kind == core::MetricField::Kind::Real;
              }),
              "SummaryMetric must list exactly the summarised, "
              "real-valued metricFields entries");

/** The metricFields entry of SummaryMetric @p metric. */
const core::MetricField &
summarisedField(std::size_t metric)
{
    return core::metricFields[kSummarised[metric]];
}

} // namespace

double
tCritical95(std::size_t df)
{
    // Two-sided 0.05 critical values of Student's t, df = 1..30.
    static constexpr double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

const char *
SummarySink::header()
{
    static const std::string header = [] {
        std::string text = "workload,config,override,replicates,failed";
        for (std::size_t metric = 0; metric < kMetricCount; ++metric) {
            for (const char *stat :
                 {"mean", "stddev", "ci95", "min", "max"})
                text += std::string(",") + summarisedField(metric).name +
                        "_" + stat;
        }
        return text;
    }();
    return header.c_str();
}

void
SummarySink::begin(const CampaignSpec &spec, std::size_t)
{
    _configs = spec.configs.size();
    _overrides = spec.overrides.empty() ? 1 : spec.overrides.size();
    const std::size_t seeds =
        spec.seeds.empty() ? 1 : spec.seeds.size();
    _cells.assign(spec.workloads.size() * _configs * _overrides,
                  CellAccumulator{});
    for (CellAccumulator &cell : _cells)
        cell.seen_seeds.assign(seeds, false);
    _summaries.clear();
}

void
SummarySink::consume(const RunRecord &record)
{
    const std::size_t at =
        (record.workload_index * _configs + record.config_index) *
            _overrides +
        record.override_index;
    if (at >= _cells.size() ||
        record.seed_index >= _cells[at].seen_seeds.size())
        sim::panic("SummarySink: record indices outside the campaign "
                   "grid announced by begin()");
    CellAccumulator &acc = _cells[at];
    if (acc.seen_seeds[record.seed_index])
        sim::panic("SummarySink: duplicate record for cell " +
                   record.workload + "/" + record.config +
                   " seed replicate " +
                   std::to_string(record.seed_index));
    acc.seen_seeds[record.seed_index] = true;

    if (!acc.touched) {
        acc.touched = true;
        acc.cell.workload_index = record.workload_index;
        acc.cell.config_index = record.config_index;
        acc.cell.override_index = record.override_index;
        acc.cell.workload = record.workload;
        acc.cell.config = record.config;
        acc.cell.override_label = record.override_label;
    }
    if (!record.ok) {
        ++acc.cell.failed;
        return;
    }
    ++acc.cell.replicates;
    for (std::size_t metric = 0; metric < kMetricCount; ++metric)
        acc.stats[metric].sample(
            record.metrics.*summarisedField(metric).real);
}

void
SummarySink::end()
{
    if (_os)
        *_os << header() << "\n";
    for (CellAccumulator &acc : _cells) {
        if (!acc.touched)
            continue; // Another shard's cell.
        for (std::size_t metric = 0; metric < kMetricCount; ++metric) {
            const stats::RunningStats &stats = acc.stats[metric];
            MetricSummary &summary = acc.cell.metrics[metric];
            summary.mean = stats.mean();
            summary.stddev = stats.stddev();
            summary.ci95 =
                stats.count() >= 2
                    ? tCritical95(stats.count() - 1) * summary.stddev /
                          std::sqrt(static_cast<double>(stats.count()))
                    : 0.0;
            summary.min = stats.min();
            summary.max = stats.max();
        }
        if (_os) {
            *_os << csvEscape(acc.cell.workload) << ','
                 << csvEscape(acc.cell.config) << ','
                 << csvEscape(acc.cell.override_label) << ','
                 << acc.cell.replicates << ',' << acc.cell.failed;
            for (std::size_t metric = 0; metric < kMetricCount;
                 ++metric) {
                const MetricSummary &summary = acc.cell.metrics[metric];
                *_os << ',' << formatShortestDouble(summary.mean) << ','
                     << formatShortestDouble(summary.stddev) << ','
                     << formatShortestDouble(summary.ci95) << ','
                     << formatShortestDouble(summary.min) << ','
                     << formatShortestDouble(summary.max);
            }
            *_os << "\n";
        }
        _summaries.push_back(acc.cell);
    }
    if (_os)
        _os->flush();
}

} // namespace corona::campaign
