#include "memory/mshr.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/logging.hh"

namespace corona::memory {

MshrFile::MshrFile(std::size_t entries)
    : _capacity(entries)
{
    if (entries == 0)
        throw std::invalid_argument("MshrFile: need >= 1 entry");
}

std::size_t
MshrFile::probe(topology::Addr line) const
{
    if (line == emptyLine)
        sim::panic("MshrFile: line address is the empty-slot key");
    const std::size_t mask = _table.size() - 1;
    std::size_t slot = homeSlot(line, _table.size());
    while (_table[slot].line != line && _table[slot].line != emptyLine)
        slot = (slot + 1) & mask;
    return slot;
}

std::size_t
MshrFile::entryOf(topology::Addr line, const char *caller) const
{
    if (!_table.empty()) {
        const std::size_t slot = probe(line);
        if (_table[slot].line == line)
            return slot;
    }
    sim::panic(std::string(caller) + ": line not outstanding");
}

bool
MshrFile::outstanding(topology::Addr line) const
{
    return !_table.empty() && _table[probe(line)].line == line;
}

bool
MshrFile::allocate(topology::Addr line, sim::Tick now)
{
    if (_table.empty())
        grow();
    const std::size_t slot = probe(line);
    if (_table[slot].line == line)
        sim::panic("MshrFile::allocate: line already outstanding");
    if (full())
        return false;
    claim(slot, line, now);
    return true;
}

void
MshrFile::coalesce(topology::Addr line, WakeFn &&waker)
{
    append(entryOf(line, "MshrFile::coalesce"), std::move(waker));
    ++_coalesced;
}

MshrFile::Join
MshrFile::join(topology::Addr line, sim::Tick now, WakeFn &&waker)
{
    if (_table.empty())
        grow();
    std::size_t slot = probe(line);
    Join outcome = Join::Coalesced;
    if (_table[slot].line != line) {
        if (full())
            return Join::Full;
        slot = claim(slot, line, now);
        outcome = Join::Allocated;
    } else {
        ++_coalesced;
    }
    append(slot, std::move(waker));
    return outcome;
}

void
MshrFile::retire(topology::Addr line, sim::Tick now)
{
    const std::size_t slot = entryOf(line, "MshrFile::retire");
    _lifetime.sample(static_cast<double>(now - _table[slot].allocated));
    std::uint32_t node = _table[slot].head;
    erase(slot);
    if (_onFree)
        _onFree();
    while (node != nil) {
        WakeFn waker = std::move(_wakers[node]);
        const std::uint32_t next = _next[node];
        _next[node] = _freeNode;
        _freeNode = node;
        node = next;
        waker();
    }
}

void
MshrFile::reset()
{
    if (_inUse != 0) {
        for (Slot &slot : _table)
            slot.line = emptyLine;
        _inUse = 0;
    }
    _wakers.clear();
    _next.clear();
    _freeNode = nil;
    _lifetime.reset();
    _coalesced = 0;
    _fullStalls = 0;
}

std::size_t
MshrFile::claim(std::size_t slot, topology::Addr line, sim::Tick now)
{
    if (2 * (_inUse + 1) > _table.size()) {
        grow();
        slot = probe(line);
    }
    _table[slot] = Slot{line, now, nil, nil};
    ++_inUse;
    return slot;
}

void
MshrFile::append(std::size_t slot, WakeFn &&waker)
{
    std::uint32_t node = _freeNode;
    if (node == nil) {
        node = static_cast<std::uint32_t>(_wakers.size());
        _wakers.push_back(std::move(waker));
        _next.push_back(nil);
    } else {
        _freeNode = _next[node];
        _wakers[node] = std::move(waker);
        _next[node] = nil;
    }
    Slot &entry = _table[slot];
    if (entry.tail == nil)
        entry.head = node;
    else
        _next[entry.tail] = node;
    entry.tail = node;
}

void
MshrFile::erase(std::size_t hole)
{
    const std::size_t mask = _table.size() - 1;
    for (std::size_t slot = (hole + 1) & mask;
         _table[slot].line != emptyLine; slot = (slot + 1) & mask) {
        // The entry may fill the hole unless its home slot lies
        // cyclically after the hole, i.e. in (hole, slot].
        const std::size_t home =
            homeSlot(_table[slot].line, _table.size());
        if (((slot - home) & mask) >= ((slot - hole) & mask)) {
            _table[hole] = _table[slot];
            hole = slot;
        }
    }
    _table[hole].line = emptyLine;
    --_inUse;
}

void
MshrFile::grow()
{
    const std::size_t limit = std::bit_ceil(2 * _capacity);
    const std::size_t slots = std::min(
        limit, _table.empty() ? std::size_t{8} : 2 * _table.size());
    std::vector<Slot> old(slots);
    old.swap(_table);
    for (const Slot &entry : old) {
        if (entry.line != emptyLine)
            _table[probe(entry.line)] = entry;
    }
}

} // namespace corona::memory
