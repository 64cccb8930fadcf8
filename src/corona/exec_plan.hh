/**
 * @file
 * Engine selection shim. Every run uses the one EventQueue engine.
 */

#ifndef CORONA_CORONA_EXEC_PLAN_HH
#define CORONA_CORONA_EXEC_PLAN_HH

#include <cstdint>

#include "corona/config.hh"

namespace corona::workload {
class Workload;
} // namespace corona::workload

namespace corona::core {

/** Kept only for perfbench/ (remove when the benchmark next changes). */
inline unsigned
effectiveSimThreads(unsigned, const SystemConfig &, const workload::Workload &,
                    std::uint64_t, bool)
{
    return 0;
}

} // namespace corona::core

#endif // CORONA_CORONA_EXEC_PLAN_HH
