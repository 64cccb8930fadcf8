/**
 * @file
 * The `.ctrace` container — the public, versioned, streaming trace
 * format for recorded per-cluster memory reference / L2-miss streams.
 *
 * The paper's methodology is itself trace-driven: a full-system
 * simulator emits annotated miss traces that the network simulator
 * replays. `.ctrace` is that seam as a first-class artifact: any
 * registry workload can be captured to a file (src/trace/capture.hh),
 * adversarial streams can be synthesized (src/trace/synth.hh), and a
 * file replays as a Workload through the whole campaign stack
 * (src/trace/replayer.hh, `workload = trace:path.ctrace`).
 *
 * On-disk layout (all integers little-endian):
 *
 *     off  size
 *     0    8   magic "CRNTRC1\n"
 *     8    2   u16 version (currently 1)
 *     10   2   u16 flags (bit 0: reference stream — raw loads/stores
 *              for the coherent front end rather than pre-filtered
 *              misses; bit 1: synthetic source — the captured
 *              generator was a synthetic pattern, carried so a
 *              replay axis fingerprints like its source axis)
 *     12   4   u32 thread count (> 0)
 *     16   8   u64 record count (total, all threads)
 *     24   8   u64 total think time (sum over records, ticks)
 *     32   8   f64 offered bytes/second of the source workload
 *              (IEEE-754 bits; replay reports it verbatim so sink
 *              bytes match the source run exactly)
 *     40   8   u64 index offset (absolute; 0 marks an unfinished or
 *              torn file and is fatal to read)
 *     48   2   u16 source-name length N
 *     50   N   source workload name (UTF-8, no NUL)
 *
 * followed by framed blocks, each holding consecutive records of ONE
 * thread:
 *
 *     u32 thread   u32 record count (> 0)   u32 payload bytes
 *     payload: per record, three varints —
 *         (think_time << 1) | write            LEB128
 *         zigzag(line  - previous line)        LEB128
 *         zigzag(home  - previous home)        LEB128
 *     deltas restart at 0/0 at every block boundary, so any block
 *     decodes independently of every other block.
 *
 * and, at the index offset, a block table:
 *
 *     4   "CIDX"
 *     8   u64 block count
 *     16 x count: u32 thread, u32 record count, u64 block offset
 *
 * The index is the last section; any trailing bytes are fatal. A
 * reader seeks the index first and then pages individual blocks on
 * demand, so a trace streams through a bounded window — per consumer
 * thread, at most one decoded block is resident — and is never fully
 * loaded, no matter how large the file. Every structural violation
 * (bad magic, impossible thread id, torn final block, overlong
 * varint, trailing garbage) dies with an offset-numbered FatalError.
 */

#ifndef CORONA_TRACE_CTRACE_HH
#define CORONA_TRACE_CTRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace corona::trace {

/** Records per block before the writer seals a frame. The streaming
 * window of any reader is bounded by this (times the consumer's
 * thread count), independent of trace length. */
inline constexpr std::size_t kDefaultBlockCapacity = 1024;

/** Decoded header of a `.ctrace` file. */
struct TraceInfo
{
    std::uint16_t version = 1;
    /** Raw reference stream (coherent front end input) vs miss
     * stream. */
    bool reference_stream = false;
    /** The captured source was a synthetic generator (axis metadata,
     * carried into campaign fingerprints). */
    bool synthetic_source = false;
    std::uint32_t threads = 0;
    std::uint64_t records = 0;
    std::uint64_t total_think = 0;
    /** Source workload's offered load, bytes/second (bit-exact). */
    double offered_bytes_per_second = 0.0;
    /** Source workload name ("Uniform", "synth:hotspot", ...). */
    std::string name;
};

/** One framed block as the index records it. */
struct BlockRef
{
    std::uint64_t offset = 0; ///< Absolute file offset of the frame.
    std::uint32_t thread = 0;
    std::uint32_t count = 0; ///< Records in the block (> 0).
};

/** Writer knobs. */
struct WriterOptions
{
    bool reference_stream = false;
    bool synthetic_source = false;
    std::size_t block_capacity = kDefaultBlockCapacity;
};

/**
 * Streams records into a `.ctrace` container. Records are buffered
 * per thread and sealed into a frame whenever a thread accumulates
 * block_capacity of them, so writer memory is bounded by
 * threads x block_capacity regardless of trace length. finish() must
 * be called exactly once; it flushes partial frames, appends the
 * index, and back-patches the header (the stream must be seekable —
 * any std::ofstream or std::stringstream is).
 */
class Writer
{
  public:
    /**
     * @param os Output stream (binary, seekable).
     * @param threads Thread count recorded in the header (> 0).
     * @param name Source workload name recorded in the header.
     */
    Writer(std::ostream &os, std::uint32_t threads, std::string name,
           WriterOptions options = {});
    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /** Append one record; fatal on a thread id out of range. */
    void append(const workload::TraceRecord &record);

    /** Mark the trace as a raw reference stream (capture discovers
     * this when the coherent front end pulls nextReference). */
    void markReferenceStream() { _options.reference_stream = true; }

    /** Record the source's offered load verbatim. When never called,
     * finish() derives it from the mean think time as the legacy
     * replayer did. */
    void setOffered(double bytes_per_second);

    /** Seal partial frames, write the index, patch the header. */
    void finish();

    std::uint64_t written() const { return _written; }
    bool finished() const { return _finished; }

  private:
    void flushThread(std::uint32_t thread);

    std::ostream &_os;
    std::uint32_t _threads;
    WriterOptions _options;
    std::vector<std::vector<workload::TraceRecord>> _pending;
    std::vector<BlockRef> _blocks;
    std::uint64_t _written = 0;
    std::uint64_t _totalThink = 0;
    double _offered = 0.0;
    bool _offeredSet = false;
    bool _finished = false;
    std::string _encodeBuffer;
};

/**
 * Random-access streaming reader. The constructor validates the
 * header and the whole index eagerly (fatal, with byte offsets, on
 * any structural violation); record payloads are decoded one block
 * at a time through readBlock(), so resident record memory is the
 * caller's window, never the trace.
 */
class Reader
{
  public:
    /**
     * @param is Input stream (binary, seekable).
     * @param label Name used in diagnostics (usually the file path).
     */
    explicit Reader(std::istream &is, std::string label = "<stream>");

    const TraceInfo &info() const { return _info; }
    const std::vector<BlockRef> &blocks() const { return _blocks; }
    /** Indices into blocks() for @p thread, in stream order. */
    const std::vector<std::uint32_t> &
    threadBlocks(std::uint32_t thread) const
    {
        return _threadBlocks.at(thread);
    }

    /**
     * Decode block @p index into @p out (replacing its contents).
     * Fatal, with the offending byte offset, on a frame that
     * disagrees with the index, a torn payload, or a corrupt varint.
     */
    void readBlock(std::uint32_t index,
                   std::vector<workload::TraceRecord> &out);

  private:
    [[noreturn]] void die(std::uint64_t offset,
                          const std::string &message) const;

    std::istream &_is;
    std::string _label;
    TraceInfo _info;
    std::uint64_t _fileSize = 0;
    std::uint64_t _indexOffset = 0;
    std::vector<BlockRef> _blocks;
    std::vector<std::vector<std::uint32_t>> _threadBlocks;
    std::string _blockBuffer;
};

/** Read just the header of @p path (fatal when unreadable/corrupt). */
TraceInfo readTraceInfo(const std::string &path);

} // namespace corona::trace

#endif // CORONA_TRACE_CTRACE_HH
