#include "xbar/optical_xbar.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::xbar {

OpticalCrossbar::OpticalCrossbar(sim::EventQueue &eq,
                                 const sim::ClockDomain &clock,
                                 std::size_t clusters,
                                 const ChannelParams &params)
{
    if (clusters < 2)
        throw std::invalid_argument("OpticalCrossbar: need >= 2 clusters");
    _channels.reserve(clusters);
    for (topology::ClusterId home = 0; home < clusters; ++home) {
        auto channel = std::make_unique<OpticalChannel>(eq, clock, clusters,
                                                        home, params);
        channel->setDeliver([this, &eq](const noc::Message &msg) {
            delivered(msg, eq.now(), 1);
        });
        _channels.push_back(std::move(channel));
    }
}

void
OpticalCrossbar::reset()
{
    Interconnect::reset();
    for (auto &channel : _channels)
        channel->reset();
}

void
OpticalCrossbar::send(const noc::Message &msg)
{
    if (msg.dst >= _channels.size())
        sim::panic("OpticalCrossbar::send: bad destination");
    _channels[msg.dst]->send(msg);
}

double
OpticalCrossbar::aggregateBandwidth() const
{
    return static_cast<double>(_channels.size()) *
           _channels.front()->bandwidthBytesPerSecond();
}

const OpticalChannel &
OpticalCrossbar::channel(topology::ClusterId home) const
{
    return *_channels.at(home);
}

void
OpticalCrossbar::setTracer(obs::EventTracer *tracer)
{
    for (auto &channel : _channels)
        channel->setTracer(tracer);
}

double
OpticalCrossbar::meanTokenWait() const
{
    double total = 0.0;
    std::uint64_t count = 0;
    for (const auto &channel : _channels) {
        const auto &waits = channel->arbiter().waitStats();
        total += waits.mean() * static_cast<double>(waits.count());
        count += waits.count();
    }
    return count ? total / static_cast<double>(count) : 0.0;
}

} // namespace corona::xbar
