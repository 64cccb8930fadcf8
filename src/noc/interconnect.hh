/**
 * @file
 * Abstract on-stack interconnect interface.
 *
 * The evaluation compares three on-stack networks (XBar, HMesh, LMesh)
 * behind one interface: clusters inject messages; the network delivers
 * them to the destination cluster's hub with whatever arbitration,
 * serialization, contention, and flow control the concrete model imposes.
 */

#ifndef CORONA_NOC_INTERCONNECT_HH
#define CORONA_NOC_INTERCONNECT_HH

#include <functional>
#include <string>

#include "noc/message.hh"
#include "stats/stats.hh"
#include "topology/geometry.hh"

namespace corona::noc {

/** Aggregate network statistics common to all interconnects. */
struct NetStats
{
    stats::Counter messages;        ///< Messages delivered.
    stats::Counter bytes;           ///< Payload+header bytes delivered.
    stats::RunningStats latency;    ///< Inject-to-deliver latency, ticks.
    stats::Counter hopTraversals;   ///< Sum over messages of hops taken
                                    ///< (drives the mesh power model).
};

/**
 * Base class for on-stack interconnect models.
 */
class Interconnect
{
  public:
    using Deliver = std::function<void(const Message &)>;

    virtual ~Interconnect() = default;

    /** Register the delivery callback (invoked at the destination hub). */
    void setDeliver(Deliver deliver) { _deliver = std::move(deliver); }

    /**
     * Inject a message. Always accepted: end-to-end outstanding traffic
     * is bounded by the clusters' MSHR files, and internal finite buffers
     * impose queueing and back-pressure on the path.
     */
    virtual void send(const Message &msg) = 0;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /** Hops a src->dst message traverses (1 for the crossbar). */
    virtual std::size_t hopCount(topology::ClusterId src,
                                 topology::ClusterId dst) const = 0;

    /**
     * Restore the pristine post-construction state: drop queued
     * traffic, zero statistics. Delivery wiring (setDeliver) is kept —
     * it binds the network to its owning system, not to one run. Only
     * meaningful when the shared EventQueue is reset alongside.
     */
    virtual void reset() { _stats = NetStats{}; }

    /** The aggregate statistics. */
    const NetStats &netStats() const { return _stats; }

  protected:
    /** Concrete models call this exactly once per delivered message. */
    void
    delivered(const Message &msg, sim::Tick now, std::size_t hops)
    {
        _stats.messages.increment();
        _stats.bytes.increment(msg.bytes());
        _stats.latency.sample(static_cast<double>(now - msg.injected));
        _stats.hopTraversals.increment(hops);
        if (_deliver)
            _deliver(msg);
    }

  private:
    Deliver _deliver;
    NetStats _stats;
};

} // namespace corona::noc

#endif // CORONA_NOC_INTERCONNECT_HH
