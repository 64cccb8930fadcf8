/**
 * @file
 * Unit tests for the `.ctrace` container: round trips across block
 * boundaries, header metadata fidelity, the bounded streaming window,
 * strict offset-numbered diagnostics on corrupt files, adversarial
 * synthesis, and the `trace:` scenario-axis resolver.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "sim/logging.hh"
#include "trace/ctrace.hh"
#include "trace/replayer.hh"
#include "trace/synth.hh"
#include "workload/trace.hh"

namespace {

using namespace corona;
using workload::TraceRecord;
using workload::TraceReplayer;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
dump(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Expect @p fn to die with a FatalError mentioning @p needle (all
 * ctrace diagnostics carry a byte offset and the file label). */
template <typename Fn>
void
expectFatalContains(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected FatalError mentioning \"" << needle
               << "\"";
    } catch (const sim::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << err.what();
    }
}

/** A deterministic, delta-hostile record stream: line jumps both
 * directions, homes wander, think times span zero to large. */
TraceRecord
sampleRecord(std::uint32_t thread, std::uint64_t seq,
             std::uint32_t threads)
{
    TraceRecord r{};
    r.thread = thread;
    r.home = static_cast<std::uint32_t>((seq * 7 + thread) % 64);
    r.line = ((static_cast<std::uint64_t>(r.home) << 32) +
              (seq % 2 == 0 ? seq * 11 : seq * 3)) *
             64;
    r.think_time = seq % 5 == 0 ? 0 : 1000 + seq * 17 + thread;
    r.write = (seq + thread) % 3 == 0 ? 1 : 0;
    (void)threads;
    return r;
}

std::string
writeSample(const std::string &name, std::uint32_t threads,
            std::uint64_t per_thread, trace::WriterOptions options = {})
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary);
    trace::Writer writer(out, threads, "sample", options);
    // Interleave threads, as a live capture would.
    for (std::uint64_t seq = 0; seq < per_thread; ++seq)
        for (std::uint32_t t = 0; t < threads; ++t)
            writer.append(sampleRecord(t, seq, threads));
    writer.finish();
    return path;
}

// ------------------------------------------------------ round trips

TEST(Ctrace, RoundTripAcrossBlockBoundaries)
{
    trace::WriterOptions options;
    options.block_capacity = 64;
    const std::string path =
        writeSample("roundtrip.ctrace", 3, 500, options);

    std::ifstream in(path, std::ios::binary);
    trace::Reader reader(in, path);
    EXPECT_EQ(reader.info().threads, 3u);
    EXPECT_EQ(reader.info().records, 1500u);
    EXPECT_EQ(reader.info().name, "sample");
    EXPECT_FALSE(reader.info().reference_stream);
    EXPECT_FALSE(reader.info().synthetic_source);
    // 500 records per thread at capacity 64 → 8 blocks per thread.
    EXPECT_EQ(reader.blocks().size(), 24u);

    std::vector<TraceRecord> block;
    for (std::uint32_t t = 0; t < 3; ++t) {
        std::uint64_t seq = 0;
        for (const std::uint32_t index : reader.threadBlocks(t)) {
            reader.readBlock(index, block);
            EXPECT_LE(block.size(), 64u);
            for (const TraceRecord &record : block)
                EXPECT_EQ(record, sampleRecord(t, seq++, 3));
        }
        EXPECT_EQ(seq, 500u);
    }
}

TEST(Ctrace, HeaderMetadataRoundTripsBitExact)
{
    const std::string path = tempPath("meta.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::WriterOptions options;
        options.reference_stream = true;
        options.synthetic_source = true;
        trace::Writer writer(out, 7, "Hot Spot", options);
        writer.append(sampleRecord(2, 0, 7));
        // An exactly-representable-nowhere double must survive the
        // header verbatim (the CSV sink serializes it).
        writer.setOffered(0.1 + 0.2);
        writer.finish();
    }
    const trace::TraceInfo info = trace::readTraceInfo(path);
    EXPECT_EQ(info.version, 1u);
    EXPECT_TRUE(info.reference_stream);
    EXPECT_TRUE(info.synthetic_source);
    EXPECT_EQ(info.threads, 7u);
    EXPECT_EQ(info.records, 1u);
    EXPECT_EQ(info.name, "Hot Spot");
    EXPECT_EQ(info.offered_bytes_per_second, 0.1 + 0.2); // Bit-exact.
}

TEST(Ctrace, DerivedOfferedMatchesLegacyReplayFormula)
{
    const std::string path = tempPath("offered.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::Writer writer(out, 2, "derived");
        TraceRecord r{};
        r.thread = 0;
        r.think_time = 1000;
        writer.append(r);
        r.thread = 1;
        r.think_time = 3000;
        writer.append(r);
        writer.finish();
    }
    // mean think 2000 ticks → threads * 64 B / (2000 / oneSecond).
    const double expected =
        2.0 * 64.0 / (2000.0 / static_cast<double>(sim::oneSecond));
    EXPECT_DOUBLE_EQ(
        trace::readTraceInfo(path).offered_bytes_per_second, expected);
}

TEST(Ctrace, WriterRejectsBadRecords)
{
    std::stringstream out;
    trace::Writer writer(out, 4, "bad");
    TraceRecord r{};
    r.thread = 4;
    EXPECT_THROW(writer.append(r), sim::FatalError);
    r.thread = 0;
    r.think_time = 1ull << 63; // Unencodable.
    EXPECT_THROW(writer.append(r), sim::FatalError);
}

// ------------------------------------------- bounded streaming window

TEST(Ctrace, ReplayWindowStaysBoundedOnATraceLargerThanTheWindow)
{
    constexpr std::uint32_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 1000;
    constexpr std::size_t kBlock = 64;
    trace::WriterOptions options;
    options.block_capacity = kBlock;
    const std::string path = writeSample("window.ctrace", kThreads,
                                         kPerThread, options);

    // The trace is far larger than the streaming window...
    ASSERT_GT(kThreads * kPerThread,
              static_cast<std::uint64_t>(kThreads) * kBlock);

    workload::TraceReplayOptions replay_options;
    replay_options.loop = 1;
    TraceReplayer replay(path, replay_options);
    sim::Rng rng(1);
    std::uint64_t consumed = 0;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        while (replay.next(t, 0, rng).think_time < sim::oneSecond)
            ++consumed;
    }
    // ...every record still replays...
    EXPECT_EQ(consumed, kThreads * kPerThread);
    // ...and at no point was more than one block per thread decoded.
    EXPECT_LE(replay.maxResidentRecords(),
              static_cast<std::size_t>(kThreads) * kBlock);
    EXPECT_GT(replay.maxResidentRecords(), 0u);
    // Exhausted cursors release their windows entirely.
    EXPECT_EQ(replay.residentRecords(), 0u);
}

// ------------------------------------------------ strict diagnostics

TEST(CtraceDiagnostics, BadMagic)
{
    const std::string path = writeSample("badmagic.ctrace", 1, 4);
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    dump(path, bytes);
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "offset 0");
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "bad magic");
}

TEST(CtraceDiagnostics, GarbageFile)
{
    const std::string path = tempPath("garbage.ctrace");
    // Prose, and the 16-byte header of the retired fixed-record
    // CORONATRACE v2 format (magic, u16 version 2, u16 flags, u32
    // thread count 16): shorter than a ctrace header, yet still named
    // as a foreign file.
    for (const std::string &bytes :
         {std::string("this is not a trace container at all, not even "
                      "close to one"),
          std::string("CORONATRACE\0\x02\0\0\0\x10\0\0\0", 16)}) {
        dump(path, bytes);
        expectFatalContains([&] { trace::readTraceInfo(path); },
                            "bad magic");
    }
}

TEST(CtraceDiagnostics, TruncatedHeader)
{
    const std::string path = tempPath("tinyheader.ctrace");
    dump(path, "CRNTRC1\n\x01");
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "too small");
}

TEST(CtraceDiagnostics, UnfinishedFileHasNoIndex)
{
    // A writer that never reached finish() leaves index offset 0 —
    // the torn-file marker.
    const std::string path = tempPath("torn.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::Writer writer(out, 2, "torn");
        for (std::uint64_t seq = 0; seq < 2000; ++seq)
            writer.append(sampleRecord(seq % 2, seq, 2));
        // No finish(): the destructor warns and the file stays torn.
    }
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "offset 40");
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "unfinished or torn");
}

TEST(CtraceDiagnostics, TornFinalBlockAndIndex)
{
    const std::string path = writeSample("chopped.ctrace", 2, 300);
    std::string bytes = slurp(path);
    bytes.resize(bytes.size() - 5);
    dump(path, bytes);
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "truncated");
}

TEST(CtraceDiagnostics, TrailingGarbageAfterIndex)
{
    const std::string path = writeSample("trailing.ctrace", 2, 10);
    std::string bytes = slurp(path);
    const std::size_t clean_size = bytes.size();
    bytes += "JUNK";
    dump(path, bytes);
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "offset " + std::to_string(clean_size));
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "trailing bytes");
}

TEST(CtraceDiagnostics, ImpossibleThreadIdInIndex)
{
    const std::string path = writeSample("badthread.ctrace", 2, 10);
    std::string bytes = slurp(path);
    std::uint64_t index_offset = 0;
    std::memcpy(&index_offset, bytes.data() + 40,
                sizeof(index_offset));
    // Entry 0's thread field sits right after "CIDX" + count. Patch
    // the matching frame header too, so the index error fires first.
    const std::uint32_t bogus = 999;
    std::memcpy(bytes.data() + index_offset + 12, &bogus,
                sizeof(bogus));
    dump(path, bytes);
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "impossible thread 999");
}

TEST(CtraceDiagnostics, CorruptVarintInBlockPayload)
{
    const std::string path = writeSample("badvarint.ctrace", 1, 10);
    std::uint64_t first_block = 0;
    {
        std::ifstream in(path, std::ios::binary);
        trace::Reader reader(in, path);
        first_block = reader.blocks()[0].offset;
    }
    std::string bytes = slurp(path);
    // Overlong varint: continuation bits forever.
    for (std::size_t i = 0; i < 11; ++i)
        bytes[first_block + 12 + i] = static_cast<char>(0xFF);
    dump(path, bytes);
    std::ifstream in(path, std::ios::binary);
    trace::Reader reader(in, path);
    std::vector<TraceRecord> block;
    expectFatalContains([&] { reader.readBlock(0, block); },
                        "corrupt varint");
}

TEST(CtraceDiagnostics, FrameDisagreeingWithIndex)
{
    const std::string path = writeSample("frameclash.ctrace", 2, 10);
    std::string bytes = slurp(path);
    std::uint64_t index_offset = 0;
    std::memcpy(&index_offset, bytes.data() + 40,
                sizeof(index_offset));
    std::uint64_t first_block = 0;
    std::memcpy(&first_block, bytes.data() + index_offset + 12 + 8,
                sizeof(first_block));
    // Corrupt the first frame's record count.
    const std::uint32_t bogus = 7777;
    std::memcpy(bytes.data() + first_block + 4, &bogus,
                sizeof(bogus));
    dump(path, bytes);
    expectFatalContains([&] { trace::readTraceInfo(path); },
                        "disagrees with the");
}

// ------------------------------------------------------- synthesis

TEST(CtraceSynth, AllToOneTargetsTheHotCluster)
{
    const std::string path = tempPath("alltoone.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::SynthSpec spec;
        spec.pattern = trace::SynthPattern::AllToOne;
        spec.threads = 8;
        spec.records_per_thread = 16;
        spec.hot_cluster = 5;
        trace::WriterOptions options;
        options.synthetic_source = true;
        trace::Writer writer(out, spec.threads,
                             "synth:" + to_string(spec.pattern),
                             options);
        EXPECT_EQ(trace::synthesize(spec, writer), 128u);
        writer.finish();
    }
    const trace::TraceInfo info = trace::readTraceInfo(path);
    EXPECT_EQ(info.records, 128u);
    EXPECT_TRUE(info.synthetic_source);
    EXPECT_EQ(info.name, "synth:all-to-one");

    std::ifstream in(path, std::ios::binary);
    trace::Reader reader(in, path);
    std::vector<TraceRecord> block;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(reader.blocks().size()); ++i) {
        reader.readBlock(i, block);
        for (const TraceRecord &record : block)
            EXPECT_EQ(record.home, 5u);
    }
}

TEST(CtraceSynth, PingPongPairsShareOneLine)
{
    const std::string path = tempPath("pingpong.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::SynthSpec spec;
        spec.pattern = trace::SynthPattern::PingPong;
        spec.threads = 4;
        spec.records_per_thread = 8;
        trace::Writer writer(out, spec.threads, "synth:ping-pong");
        trace::synthesize(spec, writer);
        writer.finish();
    }
    std::ifstream in(path, std::ios::binary);
    trace::Reader reader(in, path);
    std::vector<std::set<std::uint64_t>> lines(2);
    std::vector<TraceRecord> block;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(reader.blocks().size()); ++i) {
        reader.readBlock(i, block);
        for (const TraceRecord &record : block) {
            lines[record.thread / 2].insert(record.line);
            EXPECT_EQ(record.write, 1u);
        }
    }
    // One shared line per pair, distinct across pairs.
    EXPECT_EQ(lines[0].size(), 1u);
    EXPECT_EQ(lines[1].size(), 1u);
    EXPECT_NE(*lines[0].begin(), *lines[1].begin());
}

TEST(CtraceSynth, BurstTrainsAlternateGapAndZeroThink)
{
    const std::string path = tempPath("burst.ctrace");
    {
        std::ofstream out(path, std::ios::binary);
        trace::SynthSpec spec;
        spec.pattern = trace::SynthPattern::Burst;
        spec.threads = 1;
        spec.records_per_thread = 32;
        spec.burst_length = 8;
        spec.burst_gap = 12345;
        trace::Writer writer(out, spec.threads, "synth:burst");
        trace::synthesize(spec, writer);
        writer.finish();
    }
    std::ifstream in(path, std::ios::binary);
    trace::Reader reader(in, path);
    std::vector<TraceRecord> block;
    reader.readBlock(0, block);
    ASSERT_EQ(block.size(), 32u);
    for (std::size_t i = 0; i < block.size(); ++i)
        EXPECT_EQ(block[i].think_time, i % 8 == 0 ? 12345u : 0u);
}

TEST(CtraceSynth, RejectsInconsistentSpec)
{
    std::stringstream out;
    trace::Writer writer(out, 1, "bad");
    trace::SynthSpec spec;
    spec.hot_cluster = 64; // == clusters
    EXPECT_THROW(trace::synthesize(spec, writer), sim::FatalError);
    EXPECT_THROW(trace::synthPatternOf("nonsense"), sim::FatalError);
}

// ------------------------------------------------- scenario axis

TEST(CtraceAxis, ReplayAxisResolvesKnobsAndHeader)
{
    trace::WriterOptions options;
    options.synthetic_source = true;
    const std::string path =
        writeSample("axis.ctrace", 2, 10, options);

    const trace::ReplayAxis axis = trace::replayAxis(
        "trace:" + path,
        {{"label", "Uniform"}, {"time_scale", "2.0"}, {"loop", "3"},
         {"threads", "8"}});
    EXPECT_EQ(axis.label, "Uniform");
    EXPECT_TRUE(axis.synthetic); // From the header flag.
    const auto replayer = axis.make();
    EXPECT_EQ(replayer->name(), "Uniform");
    EXPECT_EQ(replayer->threads(), 8u);

    // Without a label the axis label falls back to the caller.
    EXPECT_TRUE(trace::replayAxis("trace:" + path, {}).label.empty());
}

TEST(CtraceAxis, ReplayAxisDiesEagerlyOnBadInput)
{
    const std::string path = writeSample("axisbad.ctrace", 2, 10);
    expectFatalContains(
        [&] { trace::replayAxis("trace:" + path, {{"bogus", "1"}}); },
        "unknown knob");
    expectFatalContains(
        [&] {
            trace::replayAxis("trace:" + path,
                              {{"time_scale", "0"}});
        },
        "time_scale");
    expectFatalContains([&] { trace::replayAxis("trace:", {}); },
                        "needs a file path");
    expectFatalContains(
        [&] { trace::replayAxis("trace:/nonexistent.ctrace", {}); },
        "cannot read");
    // A corrupt file dies at resolve time, not on a worker.
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    dump(path, bytes);
    expectFatalContains([&] { trace::replayAxis("trace:" + path, {}); },
                        "bad magic");
}

} // namespace
