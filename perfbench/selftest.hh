/**
 * @file
 * The benchmark's self-tests (see selftest.cc).
 */

#ifndef PERFBENCH_SELFTEST_HH
#define PERFBENCH_SELFTEST_HH

#include <ostream>

namespace perfbench {

/** Run every self-test, logging failures to @p log; returns the
 * failure count. */
int runSelfTests(std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HH
