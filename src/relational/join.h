// Relational-algebra evaluation for the operators the paper uses:
// equijoin R ⋈θ P, semijoin R ⋉θ P, and the Cartesian product R × P.
//
// θ is a set of attribute-index pairs (i, j) meaning R[Ai] = P[Bj]. The
// empty θ makes the equijoin degenerate to the Cartesian product and the
// semijoin to "R if P is non-empty" — exactly the paper's semantics.
//
// The joins are hash joins. The tests cross-validate them against a
// nested-loop reference (tests/testing/join_reference.h).

#ifndef JINFER_RELATIONAL_JOIN_H_
#define JINFER_RELATIONAL_JOIN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "util/result.h"

namespace jinfer {
namespace rel {

/// One equality atom (R-attribute index, P-attribute index).
using AttrPair = std::pair<size_t, size_t>;

/// Validates that every atom of theta indexes into the two schemas.
util::Status ValidateTheta(const Relation& r, const Relation& p,
                           const std::vector<AttrPair>& theta);

/// Row-index pairs (i, j) with r.row(i) joining p.row(j) under theta.
/// Output is sorted lexicographically. NULLs never match (SQL semantics).
util::Result<std::vector<std::pair<size_t, size_t>>> EquijoinIndices(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta);

/// Indices of R-rows with at least one join partner in P (sorted, unique):
/// the semijoin R ⋉θ P.
util::Result<std::vector<size_t>> SemijoinIndices(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta);

/// Materializes R ⋈θ P with schema name `name` and attributes qualified as
/// "R.A" / "P.B" to keep them unique. The empty θ materializes the
/// Cartesian product R × P.
util::Result<Relation> EquijoinRelation(const Relation& r, const Relation& p,
                                        const std::vector<AttrPair>& theta,
                                        const std::string& name);

}  // namespace rel
}  // namespace jinfer

#endif  // JINFER_RELATIONAL_JOIN_H_
