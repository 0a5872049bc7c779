// The row-major encode and build retained from the pre-columnar seed: the
// yardstick for the columnar production path (SignatureIndex::Build,
// DESIGN.md §9). tests/core/encoded_identity_test.cc asserts the two are
// bit-identical in every observable, and micro_core's
// BM_EncodeRelationRowMajor / BM_IngestAndBuildRowMajor rows time this
// side. Not a production path.

#ifndef JINFER_TESTS_TESTING_ENCODE_REFERENCE_H_
#define JINFER_TESTS_TESTING_ENCODE_REFERENCE_H_

#include <vector>

#include "core/signature_index.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "util/result.h"

namespace jinfer {
namespace core {

/// Reference encode retained from the pre-columnar seed: walks
/// materialized rows cell by cell through a Value-keyed hash dictionary.
EncodedInstance EncodeInstanceReference(const std::vector<rel::Row>& r_rows,
                                        const std::vector<rel::Row>& p_rows);

/// The full row-major reference pipeline: EncodeInstanceReference over
/// pre-materialized rows, then the same classification passes as Build
/// (SignatureIndex's private BuildFromEncoded, reached as its friend).
/// Property tests assert Build over the columnar storage is bit-identical
/// to this for every observable (class table, row codes, transcripts).
util::Result<SignatureIndex> BuildReferenceRowMajor(
    const rel::Schema& r_schema, const std::vector<rel::Row>& r_rows,
    const rel::Schema& p_schema, const std::vector<rel::Row>& p_rows,
    const SignatureIndexOptions& options = {});

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_ENCODE_REFERENCE_H_
