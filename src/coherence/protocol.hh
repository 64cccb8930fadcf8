/**
 * @file
 * MOESI protocol definitions (Section 3.1.2).
 *
 * Corona's L2s are kept coherent by a MOESI directory protocol backed by
 * the optical broadcast bus, "used to quickly invalidate a large pool of
 * sharers with a single message". The paper architected (and
 * power-estimated) the protocol without folding it into the network
 * simulation; this module implements the protocol executably so its
 * invariants can be tested and the broadcast-vs-unicast invalidation
 * trade-off (Section 3.2.2) can be measured.
 */

#ifndef CORONA_COHERENCE_PROTOCOL_HH
#define CORONA_COHERENCE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>

namespace corona::coherence {

/** Per-cache line states. */
enum class MoesiState : std::uint8_t
{
    Modified,  ///< Dirty, exclusive.
    Owned,     ///< Dirty, shared; this cache supplies data.
    Exclusive, ///< Clean, exclusive.
    Shared,    ///< Clean (w.r.t. owner), shared.
    Invalid,
};

/** Protocol message types (for traffic accounting). */
enum class CoherenceMsg : std::uint8_t
{
    GetS,      ///< Read miss to directory.
    GetM,      ///< Write miss / upgrade to directory.
    FwdGetS,   ///< Directory forwards read to owner.
    FwdGetM,   ///< Directory forwards write to owner.
    Inval,     ///< Unicast invalidate to a sharer.
    InvalBcast,///< One broadcast-bus invalidate (reaches all clusters).
    InvAck,    ///< Invalidation acknowledgement.
    Data,      ///< Data from owner or memory.
    PutM,      ///< Dirty writeback to home.
    PutS,      ///< Sharer-drop notification (keeps directory precise).
    PutAck,    ///< Writeback acknowledgement.
};

/** Invalidation transport policy (the `inval_policy` knob). */
enum class InvalPolicy
{
    Unicast,   ///< One crossbar message per sharer.
    Broadcast, ///< One broadcast-bus message when sharers >= threshold.
};

/** Spelling of each InvalPolicy: to_string() and the inval_policy knob
 * both read this table. */
inline constexpr std::pair<InvalPolicy, const char *> invalPolicyNames[] = {
    {InvalPolicy::Unicast, "unicast"},
    {InvalPolicy::Broadcast, "broadcast"},
};

/** Number of message types. */
inline constexpr std::size_t numCoherenceMsgs = 11;

/** True when a cache in @p state may service a load locally. */
bool canRead(MoesiState state);

/** True when a cache in @p state may service a store locally. */
bool canWrite(MoesiState state);

/** True when @p state holds the line dirty with respect to memory. */
bool isDirty(MoesiState state);

std::string to_string(MoesiState state);
std::string to_string(CoherenceMsg msg);
/** The `inval_policy` knob spelling (invalPolicyNames). */
std::string to_string(InvalPolicy policy);

} // namespace corona::coherence

#endif // CORONA_COHERENCE_PROTOCOL_HH
