#include "corona/system.hh"

#include <string>
#include <utility>

#include "corona/frontend.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace corona::core {

CoronaSystem::CoronaSystem(sim::EventQueue &eq, const SystemConfig &config)
    : _config(config), _geom(config.clusters)
{
    const sim::ClockDomain &clock = sim::coronaClock();

    switch (config.network) {
      case NetworkKind::XBar: {
        auto net = std::make_unique<xbar::OpticalCrossbar>(
            eq, clock, config.clusters, config.xbar_channel);
        _xbar = net.get();
        _network = std::move(net);
        break;
      }
      case NetworkKind::HMesh:
      case NetworkKind::LMesh: {
        auto net = std::make_unique<mesh::ElectricalMesh>(
            eq, clock, _geom, config.mesh, to_string(config.network));
        _mesh = net.get();
        _network = std::move(net);
        break;
      }
      case NetworkKind::Ideal:
        _network = std::make_unique<noc::IdealInterconnect>(
            eq, 8 * clock.period());
        break;
    }

    memory::MemoryParams mem_params =
        config.memory == MemoryKind::OCM
            ? memory::OcmSystem().controllerParams()
            : memory::EcmSystem().controllerParams();
    if (config.memory_bandwidth_scale <= 0.0)
        sim::fatal("CoronaSystem: memory_bandwidth_scale must be "
                   "positive");
    mem_params.bytes_per_second *= config.memory_bandwidth_scale;

    _mcs.reserve(config.clusters);
    _hubs.reserve(config.clusters);
    for (topology::ClusterId c = 0; c < config.clusters; ++c) {
        _mcs.push_back(std::make_unique<memory::MemoryController>(
            eq, c, mem_params));
        _hubs.push_back(std::make_unique<Hub>(
            eq, c, *_network, *_mcs.back(), config.mshrs_per_cluster,
            config.local_hop));
    }

    // A config with no cache level retains nothing, so its references
    // take the miss-stream path unchanged.
    if (config.cached())
        _frontEnd = std::make_unique<CoherentFrontEnd>(eq, *this, config);

    _network->setDeliver(
        [this](const noc::Message &msg) { dispatch(msg); });
}

void
CoronaSystem::dispatch(const noc::Message &msg)
{
    Hub &target = *_hubs[msg.dst];
    switch (msg.kind) {
      case noc::MsgKind::ReadReq:
      case noc::MsgKind::WriteReq:
        target.handleRequest(msg);
        break;
      case noc::MsgKind::ReadResp:
      case noc::MsgKind::WriteAck:
        target.handleResponse(msg);
        break;
      case noc::MsgKind::Invalidate:
        // Coherence sideband traffic, generated only by the
        // coherent front end.
        if (!_frontEnd)
            sim::panic("CoronaSystem: unexpected invalidate on "
                       "the NoC");
        _frontEnd->deliverSideband(msg);
        break;
    }
}

CoronaSystem::~CoronaSystem() = default;

void
CoronaSystem::reset()
{
    _network->reset();
    for (auto &mc : _mcs)
        mc->reset();
    for (auto &hub : _hubs)
        hub->reset();
    if (_frontEnd)
        _frontEnd->reset();
}

void
CoronaSystem::instrument(obs::Registry &registry)
{
    const noc::NetStats &net = _network->netStats();
    registry.add("net/messages", net.messages);
    registry.add("net/bytes", net.bytes);
    registry.add("net/hops", net.hopTraversals);
    registry.addStats("net/latency", net.latency);

    if (_xbar) {
        for (topology::ClusterId c = 0; c < _xbar->clusters(); ++c) {
            const xbar::OpticalChannel &ch = _xbar->channel(c);
            const std::string prefix =
                "xbar/ch/" + std::to_string(c) + "/";
            registry.add(prefix + "messages", [&ch] {
                return static_cast<double>(ch.messagesDelivered());
            });
            registry.add(prefix + "bytes", [&ch] {
                return static_cast<double>(ch.bytesDelivered());
            });
            registry.add(prefix + "busy_ticks", [&ch] {
                return static_cast<double>(ch.busyTime());
            });
            registry.add(prefix + "sink_depth", [&ch] {
                return static_cast<double>(ch.sinkDepth());
            });
            registry.add(prefix + "queued", [&ch] {
                return static_cast<double>(ch.queuedMessages());
            });
            registry.add(prefix + "token/grants", [&ch] {
                return static_cast<double>(ch.arbiter().grants());
            });
            registry.add(prefix + "token/grants_batched", [&ch] {
                return static_cast<double>(
                    ch.arbiter().grantsBatched());
            });
            registry.add(prefix + "token/held", [&ch] {
                return ch.arbiter().held() ? 1.0 : 0.0;
            });
            registry.addStats(prefix + "token/wait",
                              ch.arbiter().waitStats());
        }
    }

    if (_mesh) {
        static const std::pair<mesh::Direction, const char *> ports[] = {
            {mesh::Direction::East, "e"},
            {mesh::Direction::West, "w"},
            {mesh::Direction::North, "n"},
            {mesh::Direction::South, "s"},
        };
        for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
            mesh::Router &router = _mesh->router(c);
            const std::string prefix =
                "mesh/r/" + std::to_string(c) + "/";
            registry.add(prefix + "injection_depth", [&router] {
                return static_cast<double>(router.injectionDepth());
            });
            for (const auto &[dir, tag] : ports) {
                const noc::CreditBuffer &in = router.inputBuffer(dir);
                registry.add(prefix + "in/" + tag + "/depth", [&in] {
                    return static_cast<double>(in.size());
                });
            }
        }
    }

    for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
        const memory::MemoryController &mc = *_mcs[c];
        const std::string prefix = "mc/" + std::to_string(c) + "/";
        registry.add(prefix + "accesses", [&mc] {
            return static_cast<double>(mc.accesses());
        });
        registry.add(prefix + "bytes", [&mc] {
            return static_cast<double>(mc.bytesMoved());
        });
        registry.add(prefix + "queue_depth", [&mc] {
            return static_cast<double>(mc.queueDepth());
        });
        registry.add(prefix + "peak_queue", [&mc] {
            return static_cast<double>(mc.peakQueueDepth());
        });
        registry.addStats(prefix + "service", mc.serviceTime());
    }

    for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
        const Hub &hub = *_hubs[c];
        const std::string prefix = "hub/" + std::to_string(c) + "/";
        registry.add(prefix + "network_requests", [&hub] {
            return static_cast<double>(hub.networkRequests());
        });
        registry.add(prefix + "local_requests", [&hub] {
            return static_cast<double>(hub.localRequests());
        });
        registry.add(prefix + "mshr/in_use", [&hub] {
            return static_cast<double>(hub.mshrs().inUse());
        });
        registry.add(prefix + "mshr/coalesced", [&hub] {
            return static_cast<double>(hub.mshrs().coalesced());
        });
        registry.add(prefix + "mshr/full_stalls", [&hub] {
            return static_cast<double>(hub.mshrs().fullStalls());
        });
        registry.addStats(prefix + "mshr/lifetime",
                          hub.mshrs().lifetime());
    }

    if (_frontEnd)
        _frontEnd->instrument(registry);
}

void
CoronaSystem::setTracer(obs::EventTracer *tracer)
{
    if (_xbar)
        _xbar->setTracer(tracer);
    for (auto &mc : _mcs)
        mc->setTracer(tracer);
    if (_frontEnd)
        _frontEnd->setTracer(tracer);
}

double
CoronaSystem::memoryBandwidth() const
{
    double total = 0.0;
    for (const auto &mc : _mcs)
        total += mc->params().bytes_per_second;
    return total;
}

std::uint64_t
CoronaSystem::memoryBytesMoved() const
{
    std::uint64_t total = 0;
    for (const auto &mc : _mcs)
        total += mc->bytesMoved();
    return total;
}

} // namespace corona::core
