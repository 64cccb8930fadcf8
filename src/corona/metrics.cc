#include "corona/metrics.hh"

#include <stdexcept>

namespace corona::core {

double
RunMetrics::speedupOver(const RunMetrics &baseline) const
{
    if (elapsed == 0)
        throw std::invalid_argument("RunMetrics: zero elapsed time");
    if (requests_issued != baseline.requests_issued)
        throw std::invalid_argument(
            "RunMetrics: speedup requires equal work");
    return static_cast<double>(baseline.elapsed) /
           static_cast<double>(elapsed);
}

std::vector<std::string>
differingFields(const RunMetrics &a, const RunMetrics &b)
{
    std::vector<std::string> names;
    for (const MetricField &field : metricFields) {
        const bool same = field.kind == MetricField::Kind::Count
                              ? a.*field.count == b.*field.count
                              : a.*field.real == b.*field.real;
        if (!same)
            names.emplace_back(field.name);
    }
    return names;
}

} // namespace corona::core
