#include "cache/cache.hh"

#include <stdexcept>

namespace corona::cache {

CacheConfig
l1iConfig()
{
    return CacheConfig{16 * 1024, 4, 64};
}

CacheConfig
l1dConfig()
{
    return CacheConfig{32 * 1024, 4, 64};
}

CacheConfig
l2Config()
{
    return CacheConfig{4ull << 20, 16, 64};
}

CacheConfig
l2SimConfig()
{
    return CacheConfig{256 * 1024, 16, 64};
}

const char *
geometryError(const CacheConfig &config)
{
    if (config.capacity_bytes == 0 || config.associativity == 0 ||
        config.line_bytes == 0) {
        return "Cache: bad geometry";
    }
    const std::uint64_t lines = config.capacity_bytes / config.line_bytes;
    if (lines == 0)
        return "Cache: capacity below one line";
    if (lines % config.associativity != 0)
        return "Cache: capacity/assoc mismatch";
    return nullptr;
}

Cache::Cache(const CacheConfig &config)
    : _config(config)
{
    if (const char *error = geometryError(config))
        throw std::invalid_argument(error);
    _sets = config.capacity_bytes / config.line_bytes /
            config.associativity;
    _data.resize(_sets);
}

std::uint64_t
Cache::setOf(topology::Addr addr) const
{
    return (addr / _config.line_bytes) % _sets;
}

topology::Addr
Cache::tagOf(topology::Addr addr) const
{
    return addr / _config.line_bytes;
}

AccessResult
Cache::access(topology::Addr addr, bool write)
{
    Set &set = _data[setOf(addr)];
    const topology::Addr tag = tagOf(addr);

    for (auto it = set.begin(); it != set.end(); ++it) {
        if (it->tag == tag) {
            it->dirty = it->dirty || write;
            set.splice(set.begin(), set, it); // Move to MRU.
            _hits.increment();
            return AccessResult{true, std::nullopt, std::nullopt};
        }
    }

    _misses.increment();
    AccessResult result{false, std::nullopt, std::nullopt};
    if (set.size() >= _config.associativity) {
        const Line victim = set.back();
        set.pop_back();
        --_resident;
        result.evicted = victim.tag * _config.line_bytes;
        if (victim.dirty) {
            _writebacks.increment();
            result.writeback = victim.tag * _config.line_bytes;
        }
    }
    set.push_front(Line{tag, write});
    ++_resident;
    return result;
}

bool
Cache::contains(topology::Addr addr) const
{
    const Set &set = _data[setOf(addr)];
    const topology::Addr tag = tagOf(addr);
    for (const auto &line : set) {
        if (line.tag == tag)
            return true;
    }
    return false;
}

InvalidateResult
Cache::invalidateLine(topology::Addr addr)
{
    Set &set = _data[setOf(addr)];
    const topology::Addr tag = tagOf(addr);
    for (auto it = set.begin(); it != set.end(); ++it) {
        if (it->tag == tag) {
            const bool dirty = it->dirty;
            set.erase(it);
            --_resident;
            return InvalidateResult{true, dirty};
        }
    }
    return InvalidateResult{false, false};
}

bool
Cache::markDirty(topology::Addr addr)
{
    Set &set = _data[setOf(addr)];
    const topology::Addr tag = tagOf(addr);
    for (auto &line : set) {
        if (line.tag == tag) {
            line.dirty = true;
            return true;
        }
    }
    return false;
}

} // namespace corona::cache
