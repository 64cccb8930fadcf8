/**
 * @file
 * Composable per-cluster L1/L2 cache hierarchy.
 *
 * The coherent front end runs each thread's reference stream through one
 * ClusterHierarchy per cluster: hits are filtered out, misses and
 * writebacks become hub/crossbar traffic. Either level may be absent
 * (capacity 0), but not both: a config with no cache level builds no
 * coherent front end at all, so its references take the miss-stream path.
 *
 * Residency is mostly-inclusive with the L2 authoritative: an L2
 * eviction back-invalidates the L1 (a dirty back-invalidated line counts
 * as a writeback, so no store is lost), and directory-visible evictions
 * are the L2's (or the L1's when only an L1 is configured).
 */

#ifndef CORONA_CACHE_HIERARCHY_HH
#define CORONA_CACHE_HIERARCHY_HH

#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "topology/address_map.hh"

namespace corona::cache {

/** Shape of one cluster's private hierarchy. All knob-settable. */
struct HierarchyConfig
{
    std::uint32_t l1_kib = 32;  ///< 0 = no L1.
    std::uint32_t l1_assoc = 4;
    std::uint32_t l2_kib = 256; ///< 0 = no L2.
    std::uint32_t l2_assoc = 16;
    std::uint32_t line_bytes = 64;
    /** Write-through: stores update memory immediately (sideband write
     * traffic) and lines are never dirty; otherwise write-back. */
    bool write_through = false;

    /** True when at least one level is configured. */
    bool hasLevel() const { return l1_kib > 0 || l2_kib > 0; }

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * Why ClusterHierarchy would refuse @p config, or nullptr when it can
 * be built: no cache level, or a level whose geometry Cache refuses
 * (geometryError). Arithmetic only.
 */
const char *shapeError(const HierarchyConfig &config);

/** Outcome of filtering one reference through the hierarchy. */
struct HierarchyResult
{
    /** Satisfied locally — no network traffic beyond writebacks. */
    bool hit = false;
    /** Write-through store: emit a sideband write even on a hit. */
    bool write_through = false;
    /** Dirty victim lines to write back to their homes. */
    std::vector<topology::Addr> writebacks;
    /** All victim lines (clean or dirty) that left the hierarchy —
     * the directory must forget this cluster held them. */
    std::vector<topology::Addr> evictions;
};

/**
 * One cluster's private L1+L2 stack.
 */
class ClusterHierarchy
{
  public:
    /** @throws std::invalid_argument when shapeError() objects. */
    explicit ClusterHierarchy(const HierarchyConfig &config = {});

    /** Filter one reference; allocates on miss. */
    HierarchyResult access(topology::Addr addr, bool write);

    /** True when the line is resident at any level. */
    bool contains(topology::Addr addr) const;

    /** Remove a line from every level (coherence invalidation).
     * `dirty` is set when any level held a modified copy. */
    InvalidateResult invalidateLine(topology::Addr addr);

    const Cache *l1() const { return _l1 ? &*_l1 : nullptr; }
    const Cache *l2() const { return _l2 ? &*_l2 : nullptr; }
    const HierarchyConfig &config() const { return _config; }

    /** Cold caches, zeroed statistics (SystemPool lease boundary). */
    void reset();

  private:
    HierarchyConfig _config;
    std::optional<Cache> _l1;
    std::optional<Cache> _l2;
};

} // namespace corona::cache

#endif // CORONA_CACHE_HIERARCHY_HH
