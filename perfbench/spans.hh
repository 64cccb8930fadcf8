/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * A span covers one call from the benchmark into a layer of the
 * program: name, start, end, the span that caused it, and the run
 * index it belongs to. Spans stay in memory until the run ends and are
 * then written as Chrome trace-event JSON (loadable in Perfetto). A
 * null recorder makes every SpanScope a no-op, which is how the
 * untraced passes run the same code.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::uint64_t id = 0;
    /** The causing span; 0 for a root. */
    std::uint64_t parent = 0;
    const char *name = "";
    /** Nanoseconds since the recorder was created. */
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Time inside children that were timed in full but recorded only
     * as a sample (workload calls); subtracted from self time. */
    std::int64_t inner_ns = 0;
    /** Grid run index of the cell the span serves. */
    std::uint64_t run = 0;
    std::uint32_t thread = 0;
    /** A 1-in-N sample of calls whose total is in the parent's
     * inner_ns; excluded from the parent's child coverage. */
    bool sampled = false;
};

class SpanRecorder
{
  public:
    SpanRecorder() : _epoch(Clock::now()) {}

    std::int64_t
    sinceEpoch(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - _epoch)
            .count();
    }

    std::uint64_t nextId() { return _nextId.fetch_add(1) + 1; }

    void
    add(Span span)
    {
        span.thread = threadIndex();
        std::scoped_lock lock(_mutex);
        _spans.push_back(span);
    }

    /** Every span recorded so far (call once recording has stopped). */
    const std::vector<Span> &spans() const { return _spans; }

    /** Chrome trace-event JSON: one complete ("X") event per span. */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
               << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
               << ",\"dur\":"
               << static_cast<double>(s.end_ns - s.start_ns) / 1e3
               << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"run\":" << s.run
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    static std::uint32_t
    threadIndex()
    {
        static std::atomic<std::uint32_t> next{0};
        thread_local const std::uint32_t index = next.fetch_add(1);
        return index;
    }

    Clock::time_point _epoch;
    std::atomic<std::uint64_t> _nextId{0};
    std::mutex _mutex;
    std::vector<Span> _spans;
};

/** Records one span from construction to destruction; does nothing
 * when the recorder is null. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, const char *name,
              std::uint64_t parent, std::uint64_t run)
        : _recorder(recorder)
    {
        if (!_recorder)
            return;
        _span.id = _recorder->nextId();
        _span.parent = parent;
        _span.name = name;
        _span.run = run;
        _span.start_ns = _recorder->sinceEpoch(Clock::now());
    }

    ~SpanScope()
    {
        if (!_recorder)
            return;
        _span.end_ns = _recorder->sinceEpoch(Clock::now());
        _recorder->add(_span);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return _span.id; }
    void setInner(std::int64_t ns) { _span.inner_ns = ns; }

  private:
    SpanRecorder *_recorder;
    Span _span;
};

/**
 * Self time per span name, summed over unsampled spans: each span's
 * duration minus the union of its unsampled children's intervals and
 * minus its inner_ns (which covers the sampled ones).
 * Children may overlap (parallel cells under one pass), hence the
 * interval union.
 */
inline std::map<std::string, std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : spans) {
        if (s.parent && !s.sampled)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, std::int64_t> self;
    for (const Span &s : spans) {
        if (s.sampled)
            continue;
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t lo = 0, hi = -1;
            for (const auto &[a, b] : intervals) {
                const std::int64_t from = std::max(a, s.start_ns);
                const std::int64_t to = std::min(b, s.end_ns);
                if (to <= from)
                    continue;
                if (from > hi) {
                    covered += std::max<std::int64_t>(hi - lo, 0);
                    lo = from;
                    hi = to;
                } else {
                    hi = std::max(hi, to);
                }
            }
            covered += std::max<std::int64_t>(hi - lo, 0);
        }
        self[s.name] += (s.end_ns - s.start_ns) - covered - s.inner_ns;
    }
    return self;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
