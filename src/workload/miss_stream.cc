#include "workload/miss_stream.hh"

#include <stdexcept>

#include "noc/message.hh"

namespace corona::workload {

std::string
to_string(AccessPattern pattern)
{
    switch (pattern) {
      case AccessPattern::Streaming: return "Streaming";
      case AccessPattern::Strided: return "Strided";
      case AccessPattern::WorkingSet: return "WorkingSet";
    }
    return "Unknown";
}

MissStreamWorkload::MissStreamWorkload(const MissStreamParams &params)
    : _params(params), _map(params.clusters)
{
    const std::size_t n = threads();
    _l1.reserve(n);
    _cursor.assign(n, 0);
    _writebacks.resize(n);
    for (std::size_t t = 0; t < n; ++t)
        _l1.push_back(std::make_unique<cache::Cache>(params.l1));
    _l2.reserve(params.clusters);
    for (std::size_t c = 0; c < params.clusters; ++c)
        _l2.push_back(std::make_unique<cache::Cache>(params.l2));
}

std::string
MissStreamWorkload::name() const
{
    return "MissStream/" + to_string(_params.pattern);
}

std::size_t
MissStreamWorkload::threads() const
{
    return _params.clusters * _params.threads_per_cluster;
}

topology::Addr
MissStreamWorkload::nextAddress(std::size_t thread, sim::Rng &rng)
{
    // Each thread owns a disjoint address region so that L2 sharing is
    // capacity sharing, not data sharing (coherence is out of scope
    // here, as in the paper's network simulation).
    const topology::Addr base =
        static_cast<topology::Addr>(thread) << 40;
    const auto line = static_cast<topology::Addr>(noc::cacheLineBytes);
    switch (_params.pattern) {
      case AccessPattern::Streaming:
        return base + _cursor[thread]++ * line;
      case AccessPattern::Strided:
        return base +
               (_cursor[thread]++ * _params.stride_lines) * line;
      case AccessPattern::WorkingSet: {
        // The working set is a sliding window of lines; drift advances
        // the window and touches the newly entered (compulsory) line.
        std::uint64_t window_base = _cursor[thread];
        if (rng.chance(_params.drift_probability)) {
            window_base = ++_cursor[thread];
            return base +
                   (window_base + _params.working_set_lines - 1) * line;
        }
        return base +
               (window_base + rng.below(_params.working_set_lines)) *
                   line;
      }
    }
    throw std::logic_error("MissStreamWorkload: unknown pattern");
}

MissRequest
MissStreamWorkload::next(std::size_t thread, sim::Tick, sim::Rng &rng)
{
    if (thread >= threads())
        throw std::out_of_range("MissStreamWorkload::next: bad thread");
    const std::size_t cluster = thread / _params.threads_per_cluster;
    cache::Cache &l1 = *_l1[thread];
    cache::Cache &l2 = *_l2[cluster];

    // Pending L2 writebacks drain first (dirty victims travel to their
    // home as write misses).
    auto &writebacks = _writebacks[thread];
    if (!writebacks.empty()) {
        const topology::Addr victim = writebacks.front();
        writebacks.pop_front();
        MissRequest req;
        req.think_time = _params.access_period;
        req.line = victim;
        req.home = _map.homeOf(victim);
        req.write = true;
        return req;
    }

    sim::Tick think = 0;
    for (;;) {
        const topology::Addr addr = nextAddress(thread, rng);
        const bool write = rng.chance(_params.write_fraction);
        ++_accesses;
        think += _params.access_period;

        if (l1.access(addr, write).hit)
            continue; // L1 hit: pure compute time.
        const auto l2_result = l2.access(addr, write);
        if (l2_result.writeback)
            writebacks.push_back(*l2_result.writeback);
        if (l2_result.hit)
            continue; // L2 hit: still on-stack.

        MissRequest req;
        req.think_time = think;
        req.line = topology::AddressMap::lineOf(addr);
        req.home = _map.homeOf(addr);
        req.write = write;
        return req;
    }
}

double
MissStreamWorkload::l1MissRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &cache : _l1) {
        hits += cache->hits();
        misses += cache->misses();
    }
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) /
                       static_cast<double>(total)
                 : 0.0;
}

double
MissStreamWorkload::l2MissRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &cache : _l2) {
        hits += cache->hits();
        misses += cache->misses();
    }
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) /
                       static_cast<double>(total)
                 : 0.0;
}

double
MissStreamWorkload::offeredBytesPerSecond() const
{
    // Demand depends on the emergent miss rate; report the upper bound
    // where every access misses (callers use runtime stats instead).
    const double per_thread =
        static_cast<double>(noc::cacheLineBytes) /
        sim::ticksToSeconds(_params.access_period);
    const double miss = l2MissRate();
    return per_thread * static_cast<double>(threads()) *
           (miss > 0 ? miss : 1.0);
}

} // namespace corona::workload
