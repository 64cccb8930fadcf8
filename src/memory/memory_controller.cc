#include "memory/memory_controller.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace corona::memory {

MemoryParams
ocmParams()
{
    MemoryParams p;
    p.name = "OCM";
    // 2 x 64-lambda fibers at 10 Gb/s per lambda, half duplex:
    // 128 b x 10 Gb/s / 8 = 160 GB/s per controller (Section 3.3).
    p.bytes_per_second = 160e9;
    p.access_latency = 20000; // 20 ns
    // Light passes daisy-chained OCMs without retiming; a couple of
    // module pass-throughs cost well under a nanosecond.
    p.link_delay = 200;
    return p;
}

MemoryParams
ecmParams()
{
    MemoryParams p;
    p.name = "ECM";
    // 1536 pins / 64 controllers = 24 pins = 12 b full duplex per
    // direction at 10 Gb/s: 0.96 TB/s aggregate -> 15 GB/s each
    // (Table 4).
    p.bytes_per_second = 15e9;
    p.access_latency = 20000; // 20 ns
    p.link_delay = 0;
    return p;
}

MemoryController::MemoryController(sim::EventQueue &eq,
                                   topology::ClusterId cluster,
                                   const MemoryParams &params)
    : _eq(eq), _cluster(cluster), _params(params), _dram(params.dram)
{
    if (params.bytes_per_second <= 0)
        throw std::invalid_argument("MemoryController: bad bandwidth");
    _bytesPerTick =
        params.bytes_per_second / static_cast<double>(sim::oneSecond);
}

void
MemoryController::access(const noc::Message &request, topology::Addr addr,
                         Complete complete)
{
    if (request.kind != noc::MsgKind::ReadReq &&
        request.kind != noc::MsgKind::WriteReq) {
        sim::panic("MemoryController::access: not a memory request");
    }
    if (_freeSlots.empty()) {
        _freeSlots.push_back(static_cast<std::uint32_t>(_inflight.size()));
        _inflight.emplace_back();
    }
    const std::uint32_t slot = _freeSlots.back();
    _freeSlots.pop_back();
    Pending &pending = _inflight[slot];
    pending.request = request;
    pending.addr = addr;
    pending.complete = std::move(complete);
    pending.arrived = _eq.now();
    _queue.push_back(slot);
    _peakQueue = std::max(_peakQueue, _queue.size());
    tryStart();
}

void
MemoryController::tryStart()
{
    if (_busy || _queue.empty())
        return;
    const std::uint32_t slot = _queue.pop_front();
    const Pending &pending = _inflight[slot];
    _busy = true;

    const sim::Tick start = _eq.now();
    if (_tracer)
        _tracer->record(obs::TraceKind::McIssue, _cluster, pending.arrived,
                        start,
                        static_cast<std::uint32_t>(pending.request.src));
    // Every access moves one cache line over the off-stack link (read
    // fill or write data) — the serialization resource.
    const auto line = static_cast<double>(noc::cacheLineBytes);
    const auto ser = static_cast<sim::Tick>(std::ceil(line / _bytesPerTick));

    // The DRAM mat performs the array access; conflicts delay its start.
    const sim::Tick mat_ready = _dram.access(pending.addr, start);
    const sim::Tick mat_start = mat_ready - _dram.params().mat_occupancy;
    const sim::Tick array_done = mat_start + _params.access_latency;
    const sim::Tick data_ready =
        std::max(start + ser, array_done) + _params.link_delay;

    // The link frees after serialization; the array pipeline overlaps.
    _eq.scheduleIn(ser, [this] {
        _busy = false;
        tryStart();
    });
    _eq.schedule(data_ready, [this, slot, data_ready] {
        finish(slot, data_ready);
    });
}

void
MemoryController::finish(std::uint32_t slot, sim::Tick data_ready)
{
    Pending &pending = _inflight[slot];
    ++_accesses;
    _bytesMoved += noc::cacheLineBytes;
    _serviceTime.sample(static_cast<double>(data_ready - pending.arrived));
    if (_tracer)
        _tracer->record(obs::TraceKind::McComplete, _cluster,
                        pending.arrived, data_ready,
                        static_cast<std::uint32_t>(pending.request.src));

    noc::Message response;
    response.id = pending.request.id;
    response.src = _cluster;
    response.dst = pending.request.src;
    response.kind = pending.request.kind == noc::MsgKind::ReadReq
                        ? noc::MsgKind::ReadResp
                        : noc::MsgKind::WriteAck;
    response.tag = pending.request.tag;
    // Free the slot before completing: the callback may issue a new
    // access that reuses it.
    Complete complete = std::move(pending.complete);
    _freeSlots.push_back(slot);
    complete(response);
}

void
MemoryController::reset()
{
    _queue.clear();
    _inflight.clear();
    _freeSlots.clear();
    _busy = false;
    _dram.reset();
    _accesses = 0;
    _bytesMoved = 0;
    _serviceTime.reset();
    _peakQueue = 0;
}

} // namespace corona::memory
