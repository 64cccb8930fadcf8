/**
 * @file
 * Growable power-of-two FIFO ring.
 *
 * The simulator's queues (memory-controller request queues, link and
 * router injection queues, stalled-thread retries, credit buffers)
 * see a steady stream of pushes and pops at a bounded depth. A
 * std::deque allocates and frees a block every few hundred bytes of
 * traffic; this ring grows by doubling only when full, never shrinks,
 * and keeps its storage on clear(), so a warmed queue allocates
 * nothing.
 */

#ifndef CORONA_SIM_RING_HH
#define CORONA_SIM_RING_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace corona::sim {

/**
 * FIFO of default-constructible, move-assignable values. Popped slots
 * keep a moved-from value until they are overwritten.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    /** Slots allocated (a power of two, or 0 before the first push). */
    std::size_t capacity() const { return _slots.size(); }

    T &front() { return _slots[_head]; }
    const T &front() const { return _slots[_head]; }

    void
    push_back(T value)
    {
        if (_count == _slots.size())
            grow();
        _slots[(_head + _count) & _mask] = std::move(value);
        ++_count;
    }

    /** Remove and return the oldest value; the ring must not be empty. */
    T
    pop_front()
    {
        T value = std::move(_slots[_head]);
        _head = (_head + 1) & _mask;
        --_count;
        return value;
    }

    /** Drop every value; the storage is kept. */
    void
    clear()
    {
        for (; _count != 0; --_count) {
            _slots[_head] = T{};
            _head = (_head + 1) & _mask;
        }
        _head = 0;
    }

  private:
    /** Double the storage, unwrapping so the oldest value is slot 0. */
    void
    grow()
    {
        std::rotate(_slots.begin(), _slots.begin() + _head, _slots.end());
        _head = 0;
        _slots.resize(std::max<std::size_t>(4, 2 * _slots.size()));
        _mask = _slots.size() - 1;
    }

    std::vector<T> _slots;
    /** _slots.size() - 1; kept so indexing never divides by sizeof(T). */
    std::size_t _mask = 0;
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace corona::sim

#endif // CORONA_SIM_RING_HH
