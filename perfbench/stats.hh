/**
 * @file
 * The benchmark's own statistics: median, quartiles, the tail
 * percentile, and the paper-fidelity error. Header-only so the
 * self-tests exercise exactly what the report uses.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Median of @p values (mean of the two middle values when even). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * First, second and third quartile, computed exactly as Python's
 * statistics.quantiles(values, n=4) does (the default "exclusive"
 * method), so the spread the report prints is the spread a reader
 * recomputes from the raw values.
 */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("quartiles of no values");
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    if (ld == 1)
        return {values[0], values[0], values[0]};
    const long n = 4;
    const long m = ld + 1;
    std::array<double, 3> result{};
    for (long i = 1; i < n; ++i) {
        const long j = std::clamp(i * m / n, 1L, ld - 1);
        const long delta = i * m - j * n;
        result[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                         values[j] * static_cast<double>(delta)) /
                        static_cast<double>(n);
    }
    return result;
}

/** A tail statistic and the percentile it sits at. */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    /** False when fewer than 20 samples leave no percentile above the
     * median with ten samples beyond it; value is then the maximum. */
    bool defined = false;
};

/**
 * The highest percentile with at least ten samples beyond it: the
 * eleventh-largest value, at percentile 100 * (n - 10) / n. Below 20
 * samples that rank falls under the median, so the maximum is returned
 * with defined = false.
 */
inline Tail
tailPercentile(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("tail of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 20)
        return {values.back(), 100.0, false};
    return {values[n - 11],
            100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
            true};
}

/** The Section 5 geometric-mean speedups, in the order
 * bench/fig8_speedup.cc prints them: synthetic OCM over ECM, synthetic
 * crossbar over HMesh/OCM, SPLASH-2 OCM over ECM, SPLASH-2 crossbar
 * over HMesh/OCM. */
inline constexpr std::array<double, 4> kPaperGeomeans = {3.28, 2.36, 1.80,
                                                         1.44};

/** Mean of |ln(sim / paper)| over the four Section 5 geomeans. */
inline double
fidelityError(const std::array<double, 4> &simulated)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < simulated.size(); ++i) {
        if (!(simulated[i] > 0.0))
            throw std::invalid_argument("fidelity of a non-positive ratio");
        sum += std::fabs(std::log(simulated[i] / kPaperGeomeans[i]));
    }
    return sum / static_cast<double>(simulated.size());
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
