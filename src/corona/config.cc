#include "corona/config.hh"

#include "coherence/directory.hh"
#include "sim/logging.hh"

namespace corona::core {

std::string
to_string(NetworkKind kind)
{
    switch (kind) {
      case NetworkKind::XBar: return "XBar";
      case NetworkKind::HMesh: return "HMesh";
      case NetworkKind::LMesh: return "LMesh";
      case NetworkKind::Ideal: return "Ideal";
    }
    return "Unknown";
}

std::string
to_string(MemoryKind kind)
{
    switch (kind) {
      case MemoryKind::OCM: return "OCM";
      case MemoryKind::ECM: return "ECM";
    }
    return "Unknown";
}

std::string
to_string(FrontendKind kind)
{
    for (const auto &[value, name] : frontendNames) {
        if (value == kind)
            return name;
    }
    return "Unknown";
}

std::string
SystemConfig::name() const
{
    if (!label.empty())
        return label;
    return to_string(network) + "/" + to_string(memory);
}

SystemConfig
makeConfig(NetworkKind network, MemoryKind memory)
{
    SystemConfig config;
    config.network = network;
    config.memory = memory;
    switch (network) {
      case NetworkKind::HMesh:
        config.mesh = mesh::hmeshParams();
        break;
      case NetworkKind::LMesh:
        config.mesh = mesh::lmeshParams();
        break;
      case NetworkKind::XBar:
      case NetworkKind::Ideal:
        break;
    }
    return config;
}

void
validateConfig(const SystemConfig &config)
{
    if (!config.cached())
        return;
    const std::string who = "config \"" + config.name() + "\": ";
    if (config.clusters > coherence::maxPeers) {
        sim::fatal(who + "the coherence directory tracks at most " +
                   std::to_string(coherence::maxPeers) +
                   " clusters, got " + std::to_string(config.clusters) +
                   " (a coherent config with a cache level)");
    }
    if (const char *error = cache::shapeError(config.hierarchy))
        sim::fatal(who + "bad cache shape: " + error);
}

} // namespace corona::core
