// Shared vocabulary types of the inference core.

#ifndef JINFER_CORE_TYPES_H_
#define JINFER_CORE_TYPES_H_

#include <cstdint>

#include "util/bitset.h"

namespace jinfer {
namespace core {

/// A join predicate θ ⊆ Ω, stored as a bitset over attribute pairs.
/// Bit (i * |attrs(P)| + j) encodes the equality R[Ai] = P[Bj]; the Omega
/// class owns the mapping. θ1 ⊆ θ2 ("θ1 is more general") is
/// JoinPredicate::IsSubsetOf.
using JoinPredicate = util::SmallBitset;

/// Identifier of a signature equivalence class within a SignatureIndex.
/// Tuples of the Cartesian product with equal T(t) share a class.
using ClassId = uint32_t;

/// User label for a presented tuple: + (in the join result) or −.
enum class Label : uint8_t { kPositive, kNegative };

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_TYPES_H_
