/**
 * @file
 * Golden-bytes tests for the campaign serialisers: the CSV header and
 * row, the JSON Lines record (including the null spelling of
 * non-finite doubles) and the summary-CSV header, each pinned against
 * a literal string. Every other sink test compares runs with each
 * other; these catch a schema change that moves every run alike.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "campaign/aggregate.hh"
#include "campaign/sink.hh"

namespace {

using namespace corona;

/** A fixed record touching every column kind: a quoted label, a
 * multi-line error message, an infinity and a NaN. */
campaign::RunRecord
fixedRecord()
{
    campaign::RunRecord record;
    record.index = 7;
    record.workload = "FFT";
    record.config = "XBar/OCM";
    record.override_label = "mshrs=8,window=4";
    record.seed = 42;
    record.ok = false;
    record.error = "boom \"x\"\nline2";
    core::RunMetrics &m = record.metrics;
    m.requests_issued = 1000;
    m.requests_coalesced = 12;
    m.elapsed = 123456789;
    m.avg_latency_ns = 12.5;
    m.p95_latency_ns = std::numeric_limits<double>::infinity();
    m.achieved_bytes_per_second = 1.25e12;
    m.offered_bytes_per_second = 0.1;
    m.network_power_w = std::numeric_limits<double>::quiet_NaN();
    m.token_wait_ns = 3.0;
    m.hop_traversals = 555;
    m.mshr_full_stalls = 6;
    m.peak_mc_queue = 9;
    return record;
}

TEST(SinkBytes, CsvHeader)
{
    EXPECT_EQ(std::string(campaign::CsvSink::header()),
              "run,workload,config,override,seed,status,error,"
              "requests_issued,requests_coalesced,elapsed_ticks,"
              "avg_latency_ns,p95_latency_ns,achieved_bytes_per_second,"
              "offered_bytes_per_second,network_power_w,token_wait_ns,"
              "hop_traversals,mshr_full_stalls,peak_mc_queue");
}

TEST(SinkBytes, CsvRow)
{
    EXPECT_EQ(campaign::csvRow(fixedRecord()),
              "7,FFT,XBar/OCM,\"mshrs=8,window=4\",42,failed,"
              "\"boom \"\"x\"\" line2\",1000,12,123456789,12.5,inf,"
              "1.25e+12,0.1,nan,3,555,6,9");
}

TEST(SinkBytes, JsonLine)
{
    std::ostringstream os;
    campaign::JsonLinesSink sink(os);
    sink.consume(fixedRecord());
    EXPECT_EQ(os.str(),
              "{\"run\":7,\"workload\":\"FFT\",\"config\":\"XBar/OCM\","
              "\"override\":\"mshrs=8,window=4\",\"seed\":42,"
              "\"status\":\"failed\",\"error\":\"boom \\\"x\\\"\\nline2\","
              "\"requests_issued\":1000,\"requests_coalesced\":12,"
              "\"elapsed_ticks\":123456789,\"avg_latency_ns\":12.5,"
              "\"p95_latency_ns\":null,"
              "\"achieved_bytes_per_second\":1.25e+12,"
              "\"offered_bytes_per_second\":0.1,"
              "\"network_power_w\":null,\"token_wait_ns\":3,"
              "\"hop_traversals\":555,\"mshr_full_stalls\":6,"
              "\"peak_mc_queue\":9}\n");
}

TEST(SinkBytes, SummaryHeader)
{
    EXPECT_EQ(std::string(campaign::SummarySink::header()),
              "workload,config,override,replicates,failed,"
              "avg_latency_ns_mean,avg_latency_ns_stddev,"
              "avg_latency_ns_ci95,avg_latency_ns_min,avg_latency_ns_max,"
              "p95_latency_ns_mean,p95_latency_ns_stddev,"
              "p95_latency_ns_ci95,p95_latency_ns_min,p95_latency_ns_max,"
              "achieved_bytes_per_second_mean,"
              "achieved_bytes_per_second_stddev,"
              "achieved_bytes_per_second_ci95,"
              "achieved_bytes_per_second_min,"
              "achieved_bytes_per_second_max,"
              "network_power_w_mean,network_power_w_stddev,"
              "network_power_w_ci95,network_power_w_min,"
              "network_power_w_max,"
              "token_wait_ns_mean,token_wait_ns_stddev,token_wait_ns_ci95,"
              "token_wait_ns_min,token_wait_ns_max");
}

} // namespace
