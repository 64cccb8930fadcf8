/**
 * @file
 * Directory entry of one coherent line.
 *
 * The directory records a line's current owner (a cache in M, O, or E)
 * and its sharer set. CoherentSystem keeps one entry inside each line's
 * record, next to the line's home and versions. Corona's 64-cluster
 * scale fits a full bit-vector sharer list.
 */

#ifndef CORONA_COHERENCE_DIRECTORY_HH
#define CORONA_COHERENCE_DIRECTORY_HH

#include <bitset>
#include <cstdint>
#include <optional>

namespace corona::coherence {

/** Maximum caches a directory can track. */
inline constexpr std::size_t maxPeers = 64;

/** Sharer bit-vector. */
using SharerSet = std::bitset<maxPeers>;

/** Directory knowledge about one line. */
struct DirectoryEntry
{
    /** Cache holding the line in M, O, or E (supplies data). */
    std::optional<std::size_t> owner;
    /** Caches holding the line in S (and the owner when in O). */
    SharerSet sharers;
};

} // namespace corona::coherence

#endif // CORONA_COHERENCE_DIRECTORY_HH
