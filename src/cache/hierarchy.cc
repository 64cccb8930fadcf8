#include "cache/hierarchy.hh"

#include <stdexcept>

namespace corona::cache {

namespace {

CacheConfig
levelConfig(std::uint32_t kib, std::uint32_t assoc,
            std::uint32_t line_bytes)
{
    return CacheConfig{std::uint64_t{kib} * 1024, assoc, line_bytes};
}

} // namespace

const char *
shapeError(const HierarchyConfig &config)
{
    if (!config.hasLevel())
        return "ClusterHierarchy: no cache level";
    if (config.l1_kib > 0) {
        if (const char *error = geometryError(levelConfig(
                config.l1_kib, config.l1_assoc, config.line_bytes)))
            return error;
    }
    if (config.l2_kib > 0) {
        return geometryError(
            levelConfig(config.l2_kib, config.l2_assoc, config.line_bytes));
    }
    return nullptr;
}

ClusterHierarchy::ClusterHierarchy(const HierarchyConfig &config)
    : _config(config)
{
    if (const char *error = shapeError(config))
        throw std::invalid_argument(error);
    if (config.l1_kib > 0)
        _l1.emplace(levelConfig(config.l1_kib, config.l1_assoc,
                                config.line_bytes));
    if (config.l2_kib > 0)
        _l2.emplace(levelConfig(config.l2_kib, config.l2_assoc,
                                config.line_bytes));
}

HierarchyResult
ClusterHierarchy::access(topology::Addr addr, bool write)
{
    HierarchyResult result;

    // Write-through stores never dirty a line; the store reaches memory
    // as sideband traffic instead.
    const bool mark = write && !_config.write_through;

    if (!_l1 || !_l2) {
        // One level: it alone decides residency.
        const AccessResult r = (_l1 ? *_l1 : *_l2).access(addr, mark);
        result.hit = r.hit;
        if (r.evicted) {
            result.evictions.push_back(*r.evicted);
            if (r.writeback)
                result.writebacks.push_back(*r.writeback);
        }
    } else {
        const AccessResult r1 = _l1->access(addr, mark);
        if (r1.evicted) {
            // The L1 victim stays resident in the (inclusive) L2; a
            // dirty victim migrates its dirty bit down. Should the L2
            // have lost the line meanwhile, write it back directly.
            if (r1.writeback && !_l2->markDirty(*r1.writeback))
                result.writebacks.push_back(*r1.writeback);
        }
        if (r1.hit) {
            result.hit = true;
        } else {
            const AccessResult r2 = _l2->access(addr, false);
            result.hit = r2.hit;
            if (r2.evicted) {
                result.evictions.push_back(*r2.evicted);
                // Inclusion: an L2 eviction expels the line from the
                // L1 too; a dirty copy at either level writes back.
                const InvalidateResult inv = _l1->invalidateLine(*r2.evicted);
                if (r2.writeback || inv.dirty)
                    result.writebacks.push_back(*r2.evicted);
            }
        }
    }

    result.write_through = result.hit && write && _config.write_through;
    return result;
}

bool
ClusterHierarchy::contains(topology::Addr addr) const
{
    return (_l1 && _l1->contains(addr)) || (_l2 && _l2->contains(addr));
}

InvalidateResult
ClusterHierarchy::invalidateLine(topology::Addr addr)
{
    InvalidateResult result;
    if (_l1) {
        const InvalidateResult r = _l1->invalidateLine(addr);
        result.present = result.present || r.present;
        result.dirty = result.dirty || r.dirty;
    }
    if (_l2) {
        const InvalidateResult r = _l2->invalidateLine(addr);
        result.present = result.present || r.present;
        result.dirty = result.dirty || r.dirty;
    }
    return result;
}

void
ClusterHierarchy::reset()
{
    if (_l1)
        _l1->reset();
    if (_l2)
        _l2->reset();
}

} // namespace corona::cache
