/**
 * @file
 * Exact RunMetrics equality for tests: every serialised result field
 * (core::metricFields) must match bit for bit, and a failure names
 * the fields that differ.
 */

#ifndef CORONA_TESTS_METRICS_EQ_HH
#define CORONA_TESTS_METRICS_EQ_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corona/metrics.hh"

#define EXPECT_METRICS_EQ(a, b)                                         \
    EXPECT_EQ(::corona::core::differingFields((a), (b)),               \
              std::vector<std::string>{})

#endif // CORONA_TESTS_METRICS_EQ_HH
