#include "corona/context.hh"

#include <algorithm>
#include <string>

#include "corona/knobs.hh"
#include "sim/logging.hh"

namespace corona::core {

SimContext::SimContext(const SystemConfig &config, unsigned engine)
{
    if (engine != 0)
        sim::fatal("SimContext: engine " + std::to_string(engine) +
                   " does not exist; 0 is the only engine");
    _system = std::make_unique<CoronaSystem>(_eq, config);
}

namespace {

/**
 * Identity key for a SystemConfig. The knob expression covers every
 * scenario-reachable field (network, memory, clusters, channel
 * parameters, label); the mesh parameters are not knobs, so configs
 * built programmatically with a tweaked MeshParams are distinguished
 * by appending those fields explicitly.
 */
std::string
configKey(const SystemConfig &config)
{
    std::string key = configKnobExpression(config);
    key += "|mesh:";
    key += std::to_string(config.mesh.bisection_bytes_per_second);
    key += ',';
    key += std::to_string(config.mesh.hop_latency_clocks);
    key += ',';
    key += std::to_string(config.mesh.link_efficiency);
    key += ',';
    key += std::to_string(config.mesh.router.input_buffer_depth);
    key += ',';
    key += std::to_string(config.mesh.router.link_queue_depth);
    return key;
}

} // namespace

SimContext &
SystemPool::lease(const SystemConfig &config, unsigned engine)
{
    if (engine != 0)
        sim::fatal("SystemPool: engine " + std::to_string(engine) +
                   " does not exist; 0 is the only engine");
    const std::string key = configKey(config);
    for (Slot &slot : _slots) {
        if (slot.key == key) {
            slot.last_used = ++_clock;
            ++_reuses;
            slot.context->reset();
            return *slot.context;
        }
    }
    if (_slots.size() >= maxContexts) {
        // Evict the least-recently-used context: the pool bounds
        // resident systems while a grid cycling through up to
        // maxContexts configurations (the paper sweeps use 5) still
        // reuses every one.
        const auto victim = std::min_element(
            _slots.begin(), _slots.end(),
            [](const Slot &a, const Slot &b) {
                return a.last_used < b.last_used;
            });
        _slots.erase(victim);
    }
    _slots.push_back(
        Slot{key, std::make_unique<SimContext>(config),
             ++_clock});
    return *_slots.back().context;
}

} // namespace corona::core
