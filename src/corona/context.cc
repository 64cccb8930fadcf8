#include "corona/context.hh"

#include <algorithm>
#include <string>

#include "sim/logging.hh"

namespace corona::core {

SimContext::SimContext(const SystemConfig &config, unsigned engine)
{
    if (engine != 0)
        sim::fatal("SimContext: engine " + std::to_string(engine) +
                   " does not exist; 0 is the only engine");
    _system = std::make_unique<CoronaSystem>(_eq, config);
}

SimContext &
SystemPool::lease(const SystemConfig &config, unsigned engine)
{
    if (engine != 0)
        sim::fatal("SystemPool: engine " + std::to_string(engine) +
                   " does not exist; 0 is the only engine");
    for (Slot &slot : _slots) {
        if (slot.context->config() == config) {
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
        Slot{std::make_unique<SimContext>(config), ++_clock});
    return *_slots.back().context;
}

} // namespace corona::core
