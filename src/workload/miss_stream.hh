/**
 * @file
 * Cache-hierarchy-driven miss-stream workload.
 *
 * The paper's traces come from a full-system simulator running real
 * applications through real caches. This workload rebuilds that causal
 * chain in miniature: each thread emits a synthetic *address* stream
 * (streaming, strided, or working-set reuse), which flows through a
 * private L1 and its cluster's shared L2 (Table 1 geometries, true
 * LRU); only L2 misses reach the network, and the think time between
 * network requests is the time the thread spent on the intervening
 * cache hits. Miss rates — and therefore memory bandwidth demand —
 * *emerge* from cache geometry and access locality instead of being
 * calibrated directly.
 */

#ifndef CORONA_WORKLOAD_MISS_STREAM_HH
#define CORONA_WORKLOAD_MISS_STREAM_HH

#include <deque>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "topology/address_map.hh"
#include "topology/geometry.hh"
#include "workload/workload.hh"

namespace corona::workload {

/** Synthetic address-stream shapes. */
enum class AccessPattern
{
    Streaming,  ///< Sequential lines; compulsory misses dominate.
    Strided,    ///< Fixed stride in lines (column walks).
    WorkingSet, ///< Uniform reuse inside a per-thread working set.
};

std::string to_string(AccessPattern pattern);

/** Miss-stream configuration. */
struct MissStreamParams
{
    AccessPattern pattern = AccessPattern::WorkingSet;
    /** Per-thread working-set size, lines (WorkingSet pattern). */
    std::uint64_t working_set_lines = 1 << 14;
    /** Stride in lines (Strided pattern). */
    std::uint64_t stride_lines = 9;
    /** Per-access probability that the working set slides one line
     * forward (phase drift). Keeps cache-resident sets producing an
     * occasional compulsory miss — no real program re-touches a fixed
     * footprint forever. */
    double drift_probability = 0.002;
    /** Mean time per memory access (hit or miss), ticks: an in-order
     * 5 GHz core touching memory every other instruction. */
    sim::Tick access_period = 400;
    double write_fraction = 0.3;
    cache::CacheConfig l1 = cache::l1dConfig();
    cache::CacheConfig l2 = cache::l2SimConfig();
    std::size_t clusters = 64;
    std::size_t threads_per_cluster = 16;
};

/**
 * Workload whose miss stream is produced by simulated caches.
 */
class MissStreamWorkload : public Workload
{
  public:
    explicit MissStreamWorkload(const MissStreamParams &params = {});

    std::string name() const override;
    MissRequest next(std::size_t thread, sim::Tick now,
                     sim::Rng &rng) override;
    std::uint64_t paperRequests() const override { return 1'000'000; }
    double offeredBytesPerSecond() const override;
    std::size_t threads() const override;

    /** Observed L1 miss rate across all threads so far. */
    double l1MissRate() const;

    /** Observed L2 (network-visible) miss rate so far. */
    double l2MissRate() const;

    /** Total memory accesses generated so far. */
    std::uint64_t accesses() const { return _accesses; }

    void
    reset() override
    {
        for (auto &cache : _l1)
            cache->reset();
        for (auto &cache : _l2)
            cache->reset();
        _cursor.assign(_cursor.size(), 0);
        for (auto &queue : _writebacks)
            queue.clear();
        _accesses = 0;
    }

  private:
    /** Next address in thread's pattern. */
    topology::Addr nextAddress(std::size_t thread, sim::Rng &rng);

    MissStreamParams _params;
    topology::AddressMap _map;
    std::vector<std::unique_ptr<cache::Cache>> _l1;   ///< Per thread.
    std::vector<std::unique_ptr<cache::Cache>> _l2;   ///< Per cluster.
    std::vector<std::uint64_t> _cursor;               ///< Per thread.
    /** Dirty L2 victims waiting to be emitted as write misses. */
    std::vector<std::deque<topology::Addr>> _writebacks;
    std::uint64_t _accesses = 0;
};

} // namespace corona::workload

#endif // CORONA_WORKLOAD_MISS_STREAM_HH
