// SignatureIndex: precomputes T(t) — the most specific equijoin predicate
// selecting tuple t — for every tuple of the Cartesian product D = R × P,
// and groups D into *signature classes*.
//
// Two tuples with equal T(t) are interchangeable for every notion in the
// paper (consistency, certainty, entropy, the lattice), so the index stores
// one class per distinct signature together with its tuple count and a
// representative (row_r, row_p) pair. All inference state is then O(#classes)
// instead of O(|D|); the paper's per-tuple counts are recovered from the
// class multiplicities.
//
// Build cost: an encode phase that remaps the relations' per-column
// dictionary codes into one global code space (O(cells) array lookups +
// O(distinct values) hashing — see EncodeInstance below and DESIGN.md §9),
// then one pass over R′ × P′ on the encoded rows, where R′/P′
// are the duplicate-compressed sides (hashed dedup, O(|R| + |P|) expected).
// The pass is partitioned across `options.threads` workers — each worker
// classifies a contiguous block of distinct R rows into a private
// signature→class table, and the per-worker tables are merged in worker
// order, which reproduces the serial first-occurrence class numbering
// bit-for-bit (class ids, counts, representatives and maximal flags are
// independent of the thread count). The ⊆-maximality pass is a
// popcount-bucketed sweep: a signature is compared only against signatures
// with strictly larger popcount, O(Σ_k |bucket_k| · |larger buckets|) word
// ops instead of the naive O(C²), and is itself parallelized over classes.
//
// Visiting orders: the index also keeps two read-only class lists, derived
// from the class table at build and at load (never stored): every class in
// (|T(c)|, id) order — the popcount buckets laid end to end, and BU's
// visiting order — and the ⊆-maximal classes in id order, which TD visits
// before its first positive. A local strategy's pick then reads one list
// entry per class it skips instead of every class record.
//
// Storage model (DESIGN.md §8): the large arrays — the class table and the
// dictionary-encoded row codes — are exposed as spans that point either
// into vectors this index owns (the Build path) or into an externally
// owned flat buffer such as an mmapped store file (FromSections, used by
// src/store/'s zero-copy loader). The index is move-only: moving transfers
// the owned buffers without invalidating the spans, while copying would
// silently alias them.

#ifndef JINFER_CORE_SIGNATURE_INDEX_H_
#define JINFER_CORE_SIGNATURE_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/omega.h"
#include "core/types.h"
#include "relational/relation.h"
#include "util/result.h"

namespace jinfer {
namespace core {

/// One equivalence class of Cartesian-product tuples sharing a signature.
///
/// The layout is part of the persistent store's on-disk format (the class
/// table section is a flat array of these records, DESIGN.md §8), so it is
/// pinned by static_asserts in src/store/index_file.h; reorder or resize
/// only together with a format version bump.
struct SignatureClass {
  JoinPredicate signature;   ///< T(t) for every member tuple.
  uint64_t count = 0;        ///< Number of member tuples in D.
  uint32_t rep_r = 0;        ///< Representative R row index.
  uint32_t rep_p = 0;        ///< Representative P row index.
  bool maximal = false;      ///< No other class signature strictly contains
                             ///< this one (MaximalClasses lists these).
};

struct SignatureIndexOptions {
  /// Group tuples with equal signatures into weighted classes (the default
  /// and the production configuration). When false, every tuple of D gets
  /// its own singleton class — quadratic state, kept only for the
  /// compression ablation bench.
  bool compress = true;

  /// Number of worker threads for the build (classification pass and
  /// maximality sweep). 1 = serial (the default, and what tests use unless
  /// they exercise parallelism); 0 = one per hardware thread. The built
  /// index is identical for every thread count.
  int threads = 1;
};

/// A dictionary-encoded instance: flat row-major uint32 code arrays for R
/// and P over one shared global code space. Equal non-null values share a
/// code across both relations; every NULL cell gets a fresh code from the
/// descending range (NULL never matches anything, per rel::Value
/// semantics). This is the SignatureIndex build's input format and the
/// persistent store's serialized row representation.
struct EncodedInstance {
  std::vector<uint32_t> r_codes;
  std::vector<uint32_t> p_codes;
};

/// Production encode: merges the relations' per-column dictionaries into
/// the global code space with a column-wise remap — one array lookup per
/// cell, value hashing only once per distinct (column, value). The code
/// assignment reproduces the retained row-major reference
/// (tests/testing/encode_reference.h) bit-for-bit (property-tested):
/// global codes ascend from 0 in row-major first-occurrence order over R
/// then P, NULL codes descend from UINT32_MAX per NULL cell in the same
/// walk order.
EncodedInstance EncodeInstance(const rel::Relation& r, const rel::Relation& p);

class SignatureIndex {
 public:
  /// Builds the index for an instance of two relations. Fails when Ω
  /// exceeds predicate capacity or a relation is empty.
  static util::Result<SignatureIndex> Build(
      const rel::Relation& r, const rel::Relation& p,
      const SignatureIndexOptions& options = {});

  /// Reassembles an index from its serialized sections without copying the
  /// large arrays: `classes` and the code spans are adopted as-is and must
  /// stay valid for the index's lifetime — `storage` (e.g. a shared mmap
  /// handle) is held to guarantee that. Only the signature→class hash map
  /// and the two visiting orders are rebuilt (O(#classes), negligible next
  /// to the classification pass). Fails with ParseError when the sections
  /// are mutually inconsistent (sizes, a class signature outside Ω,
  /// duplicate signatures under compression, counts not summing to
  /// num_tuples) — the store's last line of defense behind its checksum.
  /// A freshly Build()-ed and a FromSections()-reassembled index over the
  /// same instance are bit-identical in every observable (property-tested
  /// in tests/store/).
  static util::Result<SignatureIndex> FromSections(
      Omega omega, uint64_t num_tuples, bool compressed,
      std::span<const SignatureClass> classes,
      std::span<const uint32_t> r_codes, std::span<const uint32_t> p_codes,
      std::shared_ptr<const void> storage);

  SignatureIndex(SignatureIndex&&) = default;
  SignatureIndex& operator=(SignatureIndex&&) = default;
  // Copying would alias the owned buffers through the spans; the runtime
  // shares indexes via shared_ptr<const SignatureIndex> instead.
  SignatureIndex(const SignatureIndex&) = delete;
  SignatureIndex& operator=(const SignatureIndex&) = delete;

  const Omega& omega() const { return omega_; }

  /// Process-unique id stamped at Build time. Distinguishes a rebuilt
  /// index that happens to land at a destroyed index's address — caches
  /// keyed on index identity (the OPT strategy's engine cache) compare
  /// this instead of the address.
  uint64_t build_id() const { return build_id_; }

  /// True iff equal-signature tuples were grouped into weighted classes
  /// (SignatureIndexOptions::compress at build time).
  bool compressed() const { return compressed_; }

  size_t num_classes() const { return classes_.size(); }
  const SignatureClass& cls(ClassId id) const { return classes_[id]; }
  std::span<const SignatureClass> classes() const { return classes_; }

  /// Every class id in (|T(c)|, id) order: BU's visiting order, so the
  /// first informative entry is the smallest informative signature with
  /// ties broken by lowest id.
  std::span<const ClassId> ClassesBySize() const { return classes_by_size_; }

  /// The ids of the classes flagged maximal, in increasing id order: TD's
  /// visiting order before its first positive label.
  std::span<const ClassId> MaximalClasses() const { return maximal_classes_; }

  /// |D| = |R| * |P|.
  uint64_t num_tuples() const { return num_tuples_; }

  /// Row counts of the underlying instance.
  size_t num_r_rows() const {
    return omega_.num_r_attrs() == 0 ? 0
                                     : r_codes_.size() / omega_.num_r_attrs();
  }
  size_t num_p_rows() const {
    return omega_.num_p_attrs() == 0 ? 0
                                     : p_codes_.size() / omega_.num_p_attrs();
  }

  /// Dictionary-encoded rows, flat row-major (row i occupies codes
  /// [i*width, (i+1)*width) with width = the relation's attribute count).
  /// These are the serialized sections of the persistent store.
  std::span<const uint32_t> r_codes() const { return r_codes_; }
  std::span<const uint32_t> p_codes() const { return p_codes_; }

  /// Class holding the given signature, if any tuple has it.
  std::optional<ClassId> ClassOfSignature(const JoinPredicate& sig) const;

  /// T(t) for an arbitrary tuple (by original row indices), recomputed from
  /// the encoded rows. Agrees with the class signatures by construction.
  JoinPredicate SignatureOfPair(size_t r_row, size_t p_row) const;

  /// True iff θ selects the tuples of class `id`: θ ⊆ signature.
  bool Selects(const JoinPredicate& theta, ClassId id) const {
    return theta.IsSubsetOf(classes_[id].signature);
  }

  /// Number of tuples of D selected by θ (weighted by class counts).
  uint64_t CountSelected(const JoinPredicate& theta) const;

  /// True iff θ1 and θ2 select exactly the same subset of D — the paper's
  /// instance-equivalence (§3.3).
  bool EquivalentOnInstance(const JoinPredicate& theta1,
                            const JoinPredicate& theta2) const;

  /// True iff θ selects at least one tuple of D (θ is non-nullable).
  bool IsNonNullable(const JoinPredicate& theta) const;

 private:
  SignatureIndex() = default;

  /// Shared back half of Build and the test library's row-major
  /// reference build: dedup, the parallel classification pass and the
  /// maximality sweep over an already-encoded instance.
  static util::Result<SignatureIndex> BuildFromEncoded(
      Omega omega, EncodedInstance encoded,
      const SignatureIndexOptions& options);
  friend util::Result<SignatureIndex> BuildReferenceRowMajor(
      const rel::Schema& r_schema, const std::vector<rel::Row>& r_rows,
      const rel::Schema& p_schema, const std::vector<rel::Row>& p_rows,
      const SignatureIndexOptions& options);

  /// Rebuilds class_of_signature_ from classes_ (Build fills it
  /// incrementally instead) and checks every class record against Ω, the
  /// encoded rows and num_tuples; FromSections calls it.
  util::Status IndexSignatures();

  /// Derives classes_by_size_ and maximal_classes_ from classes_ (their
  /// popcounts and maximal flags); Build and FromSections both end here.
  void DeriveClassLists();

  Omega omega_;
  uint64_t build_id_ = 0;
  bool compressed_ = true;
  uint64_t num_tuples_ = 0;

  // Owned storage (the Build path). A mapped index leaves these empty and
  // keeps the backing file alive through storage_ instead; either way the
  // spans below are the single read surface.
  std::vector<SignatureClass> owned_classes_;
  std::vector<uint32_t> owned_r_codes_;
  std::vector<uint32_t> owned_p_codes_;
  std::shared_ptr<const void> storage_;

  std::span<const SignatureClass> classes_;
  std::span<const uint32_t> r_codes_;
  std::span<const uint32_t> p_codes_;

  std::unordered_map<JoinPredicate, ClassId, util::SmallBitsetHash>
      class_of_signature_;

  // Derived visiting orders (DeriveClassLists); owned even by a mapped
  // index, 4 bytes per listed class.
  std::vector<ClassId> classes_by_size_;
  std::vector<ClassId> maximal_classes_;
};

}  // namespace core
}  // namespace jinfer

#endif  // JINFER_CORE_SIGNATURE_INDEX_H_
