#include "noc/buffer.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/logging.hh"

namespace corona::noc {

CreditBuffer::CreditBuffer(std::size_t capacity)
    : _capacity(capacity)
{
    if (capacity == 0)
        throw std::invalid_argument("CreditBuffer: capacity must be >= 1");
}

bool
CreditBuffer::reserve()
{
    if (!hasCredit())
        return false;
    ++_reserved;
    return true;
}

void
CreditBuffer::unreserve()
{
    if (_reserved == 0)
        sim::panic("CreditBuffer::unreserve without reservation");
    --_reserved;
}

void
CreditBuffer::push(const Message &msg, sim::Tick now, bool reserved)
{
    if (reserved) {
        if (_reserved == 0)
            sim::panic("CreditBuffer::push claims missing reservation");
        --_reserved;
    } else if (!hasCredit()) {
        sim::panic("CreditBuffer::push without credit");
    }
    if (_count == _ring.size()) {
        // Full ring: unwrap it so the oldest message is slot 0, then
        // append the new slots after the newest.
        std::rotate(_ring.begin(), _ring.begin() + _head, _ring.end());
        _head = 0;
        _ring.resize(std::min(_capacity, std::max<std::size_t>(
                                             4, 2 * _ring.size())));
    }
    std::size_t tail = _head + _count;
    if (tail >= _ring.size())
        tail -= _ring.size();
    _ring[tail] = msg;
    ++_count;
    _peak = std::max(_peak, size());
    _occupancy.update(now, static_cast<double>(size()));
}

const Message &
CreditBuffer::front() const
{
    if (_count == 0)
        sim::panic("CreditBuffer::front on empty buffer");
    return _ring[_head];
}

Message
CreditBuffer::pop(sim::Tick now)
{
    if (_count == 0)
        sim::panic("CreditBuffer::pop on empty buffer");
    const Message msg = _ring[_head];
    if (++_head == _ring.size())
        _head = 0;
    --_count;
    _occupancy.update(now, static_cast<double>(size()));
    if (_onDrain)
        _onDrain();
    return msg;
}

double
CreditBuffer::averageOccupancy(sim::Tick now) const
{
    return _occupancy.average(now);
}

} // namespace corona::noc
