/**
 * @file
 * Whole-system assembly.
 *
 * CoronaSystem instantiates one of the five paper configurations: the
 * selected on-stack interconnect (photonic crossbar or electrical mesh),
 * 64 memory controllers with OCM or ECM parameters, and 64 hubs, and
 * wires network delivery to the hubs (requests to the home memory
 * controller, responses to the waiting MSHRs).
 */

#ifndef CORONA_CORONA_SYSTEM_HH
#define CORONA_CORONA_SYSTEM_HH

#include <memory>
#include <vector>

#include "corona/config.hh"
#include "corona/hub.hh"
#include "mesh/electrical_mesh.hh"
#include "memory/ecm.hh"
#include "memory/memory_controller.hh"
#include "memory/ocm.hh"
#include "noc/ideal_interconnect.hh"
#include "noc/interconnect.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "topology/geometry.hh"
#include "xbar/optical_xbar.hh"

namespace corona::obs {
class EventTracer;
class Registry;
} // namespace corona::obs

namespace corona::core {

class CoherentFrontEnd;

/**
 * A fully wired Corona (or baseline) system.
 */
class CoronaSystem
{
  public:
    /**
     * @param eq Event queue (externally owned; one per simulation).
     * @param config System configuration.
     */
    CoronaSystem(sim::EventQueue &eq, const SystemConfig &config);

    ~CoronaSystem(); // Out of line: CoherentFrontEnd is incomplete here.

    const SystemConfig &config() const { return _config; }
    const topology::Geometry &geometry() const { return _geom; }

    noc::Interconnect &network() { return *_network; }
    const noc::Interconnect &network() const { return *_network; }

    Hub &hub(topology::ClusterId cluster) { return *_hubs.at(cluster); }
    memory::MemoryController &
    mc(topology::ClusterId cluster)
    {
        return *_mcs.at(cluster);
    }
    const memory::MemoryController &
    mc(topology::ClusterId cluster) const
    {
        return *_mcs.at(cluster);
    }

    /** Aggregate off-stack memory bandwidth, bytes per second. */
    double memoryBandwidth() const;

    /** Total bytes moved over all memory controllers. */
    std::uint64_t memoryBytesMoved() const;

    /**
     * Restore the pristine post-construction state of every component
     * (network, memory controllers, hubs). Construction involves no
     * randomness, so a reset system is observationally identical to a
     * freshly built one — the basis of the campaign runner's system
     * pool. The externally owned EventQueue must be reset alongside
     * (SimContext does both).
     */
    void reset();

    /**
     * Register every component's statistics (plus live depth gauges)
     * in @p registry under stable paths: net/..., xbar/ch/<c>/...,
     * mesh/r/<c>/..., mc/<c>/..., hub/<c>/.... Registration order is
     * construction order, so the probe set is deterministic for a
     * given configuration. Probes hold references into this system:
     * the registry must not outlive it.
     */
    void instrument(obs::Registry &registry);

    /**
     * Attach a trace sink to every traced component — crossbar
     * channels and token arbiters, memory controllers — or detach
     * them all with null. reset() keeps the attachment; a RunObserver
     * detaches in its destructor.
     */
    void setTracer(obs::EventTracer *tracer);

    /** Crossbar accessor (null for mesh systems). */
    const xbar::OpticalCrossbar *crossbar() const { return _xbar; }

    /** Mesh accessor (null for crossbar systems). */
    const mesh::ElectricalMesh *meshNetwork() const { return _mesh; }

    /** Coherent front end (null for miss-stream configurations and
     * for coherent ones with no cache level). */
    CoherentFrontEnd *frontEnd() { return _frontEnd.get(); }
    const CoherentFrontEnd *frontEnd() const { return _frontEnd.get(); }

  private:
    /** Route a delivered message to its destination hub / front end. */
    void dispatch(const noc::Message &msg);

    SystemConfig _config;
    topology::Geometry _geom;
    std::unique_ptr<noc::Interconnect> _network;
    xbar::OpticalCrossbar *_xbar = nullptr;
    mesh::ElectricalMesh *_mesh = nullptr;
    std::vector<std::unique_ptr<memory::MemoryController>> _mcs;
    std::vector<std::unique_ptr<Hub>> _hubs;
    std::unique_ptr<CoherentFrontEnd> _frontEnd;
};

} // namespace corona::core

#endif // CORONA_CORONA_SYSTEM_HH
