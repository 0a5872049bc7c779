// InstanceFingerprint: the 128-bit content fingerprint of an inference
// instance, shared by the in-memory IndexCache (PR 3) and the persistent
// index store (this PR) — one identity from first request to on-disk file.
//
// It digests relation names, attribute names, every cell value (with its
// runtime type) and the compression flag. Equal instances always collide;
// distinct instances collide with probability ~2^-128 per pair, which both
// cache and store treat as never (a collision would silently alias two
// instances).
//
// Determinism: the digest folds explicit type tags and payload bytes,
// never pointer values or std::hash, so it is stable across runs — which
// is what lets store files be content-addressed by fingerprint. String
// bytes are absorbed in native byte order, so fingerprints are NOT
// portable across endianness; the store's file format carries a byte-order
// marker and refuses foreign files for the same reason (DESIGN.md §8).
//
// Stability across the columnar refactor: the digest now walks cells
// through the relations' column dictionaries, but absorbs the byte stream
// of the original row-major cell walk unchanged — the type tags ARE the
// rel::ValueType enumerator values. Content-equality with pre-columnar
// fingerprints is pinned by tests/store/fingerprint_compat_test.cc
// (frozen reference hasher + golden seed values); see DESIGN.md §9 for
// why the dictionary+codes digest was rejected.

#ifndef JINFER_STORE_FINGERPRINT_H_
#define JINFER_STORE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "relational/relation.h"

namespace jinfer {
namespace store {

struct InstanceFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const InstanceFingerprint& a,
                         const InstanceFingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }

  /// 32 lowercase hex digits (hi then lo) — the store's file-name stem.
  std::string ToHex() const;
};

/// Fingerprints (r, p, compress). The SignatureIndex thread count is
/// deliberately excluded: it never changes the built index.
InstanceFingerprint FingerprintInstance(const rel::Relation& r,
                                        const rel::Relation& p, bool compress);

/// Digests an instance as a client uploads it — relation names and CSV
/// text exactly as they came off the wire, plus the compression flag —
/// with the same hasher behind a domain tag, so it never equals an
/// instance fingerprint. Byte-identical uploads share one digest; the
/// server recognises a repeat upload by it (runtime::IndexCache aliases)
/// and skips the parse and the fingerprint. It is as strong an identity
/// as the fingerprint: the parse is a pure function of these fields.
/// Strategy and seed are not part of the instance and are left out.
InstanceFingerprint FingerprintUpload(std::string_view r_name,
                                      std::string_view r_csv,
                                      std::string_view p_name,
                                      std::string_view p_csv, bool compress);

}  // namespace store
}  // namespace jinfer

#endif  // JINFER_STORE_FINGERPRINT_H_
