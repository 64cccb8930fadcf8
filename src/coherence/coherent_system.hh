/**
 * @file
 * Executable MOESI directory-coherence system.
 *
 * Up to 64 cache peers and two invalidation transports: unicast
 * invalidates over the crossbar (one message per sharer) or a single
 * broadcast-bus message reaching every cluster (Section 3.2.2). Each
 * line the protocol has seen has one record holding its home, its
 * memory and latest versions, and its directory entry. The system
 * executes transactions atomically (the functional level the paper
 * architected the protocol at) and counts every protocol message,
 * which drives the broadcast-ablation bench.
 */

#ifndef CORONA_COHERENCE_COHERENT_SYSTEM_HH
#define CORONA_COHERENCE_COHERENT_SYSTEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "coherence/cache_peer.hh"
#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "topology/address_map.hh"

namespace corona::coherence {

/** System configuration. */
struct CoherenceConfig
{
    std::size_t peers = 64;
    InvalPolicy policy = InvalPolicy::Broadcast;
    /** Minimum sharer count at which the broadcast bus is preferred. */
    std::size_t broadcast_threshold = 2;
};

/** Everything the system knows about one line. */
struct LineRecord
{
    /** Peer whose directory bank tracks the line. */
    std::size_t home = 0;
    /** Version held by memory (0 = never written back). */
    std::uint64_t memory = 0;
    /** Latest version any write produced. */
    std::uint64_t latest = 0;
    DirectoryEntry dir;
};

/** Destination id used for a broadcast (all peers). */
inline constexpr std::size_t broadcastDest = static_cast<std::size_t>(-1);

/**
 * The coherent 64-cluster L2 system.
 */
class CoherentSystem
{
  public:
    /**
     * Hook receiving the protocol messages that travel as real network
     * traffic (Inval, InvalBcast, FwdGetS, FwdGetM, PutM) with their
     * endpoints; GetS/GetM/Data ride the front end's existing
     * request/response pair, and PutS/PutAck/InvAck are absorbed
     * locally. For an InvalBcast, `to` names the requester excluded
     * from the snoop (broadcastDest when nobody is spared).
     */
    using Emitter = std::function<void(CoherenceMsg msg, std::size_t from,
                                       std::size_t to, topology::Addr line)>;

    explicit CoherentSystem(const CoherenceConfig &config = {});

    /** Install the network-traffic hook (empty = atomic-only mode). */
    void setEmitter(Emitter emitter) { _emitter = std::move(emitter); }

    /** Execute a load by @p peer; returns the version observed. */
    std::uint64_t read(std::size_t peer, topology::Addr line);

    /** Execute a store by @p peer; returns the version produced. */
    std::uint64_t write(std::size_t peer, topology::Addr line);

    /** Evict @p line from @p peer (writeback when dirty). */
    void evict(std::size_t peer, topology::Addr line);

    /**
     * Explicit-home variants: bank @p line under @p home instead of the
     * internal address map. The home must be a pure function of the
     * line (the workload's contract): the first home a line is seen
     * with is kept in its record, and a different one later is fatal.
     */
    std::uint64_t read(std::size_t peer, topology::Addr line,
                       std::size_t home);
    std::uint64_t write(std::size_t peer, topology::Addr line,
                        std::size_t home);
    void evict(std::size_t peer, topology::Addr line, std::size_t home);

    /** Current globally visible version of @p line (0 = never written). */
    std::uint64_t memoryVersion(topology::Addr line) const;

    /** Record of @p line; nullptr when the line was never accessed. */
    const LineRecord *find(topology::Addr line) const;

    /** Messages of each type sent so far. */
    std::uint64_t messageCount(CoherenceMsg msg) const;

    /** Total protocol messages. */
    std::uint64_t totalMessages() const;

    const CachePeer &peer(std::size_t id) const { return _peers.at(id); }
    const CoherenceConfig &config() const { return _config; }

    /**
     * Verify global invariants (single writer, owner/sharer agreement,
     * reader freshness); throws PanicError on violation.
     */
    void checkInvariants() const;

    /** Return to the pristine post-construction state. */
    void reset();

  private:
    /** Invalidate all sharers of @p line except @p except. */
    void invalidateSharers(LineRecord &rec, topology::Addr line,
                           std::size_t except);

    /** Record of @p line, created under @p home on first access. */
    LineRecord &recordOf(const char *op, std::size_t peer,
                         topology::Addr line, std::size_t home);

    void count(CoherenceMsg msg, std::uint64_t n = 1);

    void emit(CoherenceMsg msg, std::size_t from, std::size_t to,
              topology::Addr line);

    /** Directory bank a line is (or will be) tracked under. */
    std::size_t homeOf(topology::Addr line) const;

    /** Latest committed version (memory or dirty owner). */
    std::uint64_t currentVersion(topology::Addr line,
                                 const LineRecord &rec) const;

    CoherenceConfig _config;
    std::vector<CachePeer> _peers;
    topology::AddressMap _map;
    std::unordered_map<topology::Addr, LineRecord> _lines;
    std::array<std::uint64_t, numCoherenceMsgs> _msgCounts{};
    Emitter _emitter;
};

} // namespace corona::coherence

#endif // CORONA_COHERENCE_COHERENT_SYSTEM_HH
