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
    _ring.push_back(msg);
    _peak = std::max(_peak, size());
    _occupancy.update(now, static_cast<double>(size()));
}

const Message &
CreditBuffer::front() const
{
    if (_ring.empty())
        sim::panic("CreditBuffer::front on empty buffer");
    return _ring.front();
}

Message
CreditBuffer::pop(sim::Tick now)
{
    if (_ring.empty())
        sim::panic("CreditBuffer::pop on empty buffer");
    const Message msg = _ring.pop_front();
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
