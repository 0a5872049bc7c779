// The nested-loop equijoin: the reference the join tests cross-validate
// the library's hash join (relational/join.h) against. It compares cells
// directly, so it has none of the hash path's bucketing.

#ifndef JINFER_TESTS_TESTING_JOIN_REFERENCE_H_
#define JINFER_TESTS_TESTING_JOIN_REFERENCE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "relational/join.h"
#include "relational/relation.h"
#include "util/result.h"

namespace jinfer {
namespace rel {

/// Reference nested-loop implementation of EquijoinIndices.
util::Result<std::vector<std::pair<size_t, size_t>>> EquijoinIndicesNaive(
    const Relation& r, const Relation& p, const std::vector<AttrPair>& theta);

}  // namespace rel
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_JOIN_REFERENCE_H_
