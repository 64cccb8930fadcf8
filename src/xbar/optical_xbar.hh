/**
 * @file
 * The Corona photonic crossbar (Section 3.2.1).
 *
 * A fully connected 64x64 crossbar built from 64 many-writer
 * single-reader channels, one homed at each cluster. Aggregate bandwidth
 * is 64 channels x 2.56 Tb/s = 20.48 TB/s; arbitration is the
 * distributed optical token scheme of Section 3.2.3.
 */

#ifndef CORONA_XBAR_OPTICAL_XBAR_HH
#define CORONA_XBAR_OPTICAL_XBAR_HH

#include <memory>
#include <vector>

#include "noc/interconnect.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "xbar/optical_channel.hh"

namespace corona::xbar {

/**
 * Photonic crossbar interconnect.
 */
class OpticalCrossbar : public noc::Interconnect
{
  public:
    /**
     * @param eq Event queue.
     * @param clock 5 GHz digital clock.
     * @param clusters Endpoint count (64).
     * @param params Per-channel parameters.
     */
    OpticalCrossbar(sim::EventQueue &eq, const sim::ClockDomain &clock,
                    std::size_t clusters, const ChannelParams &params = {});

    void send(const noc::Message &msg) override;
    std::string name() const override { return "XBar"; }
    void reset() override;

    /** The crossbar is a single optical hop regardless of distance. */
    std::size_t
    hopCount(topology::ClusterId, topology::ClusterId) const override
    {
        return 1;
    }

    /** Aggregate crossbar bandwidth, bytes per second (20.48 TB/s). */
    double aggregateBandwidth() const;

    /** Bisection bandwidth, bytes per second (half the channels). */
    double bisectionBandwidth() const { return aggregateBandwidth() / 2; }

    /** Access a channel (e.g. for arbitration statistics). */
    const OpticalChannel &channel(topology::ClusterId home) const;

    /** Mean token-acquisition wait across all channels, ticks. */
    double meanTokenWait() const;

    /** Attach a trace sink to every channel (null detaches). */
    void setTracer(obs::EventTracer *tracer);

    std::size_t clusters() const { return _channels.size(); }

  private:
    std::vector<std::unique_ptr<OpticalChannel>> _channels;
};

} // namespace corona::xbar

#endif // CORONA_XBAR_OPTICAL_XBAR_HH
