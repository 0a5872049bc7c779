#include "core/signature_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <unordered_set>

#include "relational/column_table.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace jinfer {
namespace core {

namespace {

uint64_t NextBuildId() {
  static std::atomic<uint64_t> next_build_id{1};
  return next_build_id.fetch_add(1, std::memory_order_relaxed);
}

/// A distinct encoded row (pointer into the flat code array) with its
/// multiplicity and a representative original row index.
struct DistinctRow {
  const uint32_t* codes;
  uint64_t count;
  uint32_t rep;
};

/// Hash/equality over width-sized code rows, keyed by pointer into the
/// flat array (no row copies); the width is fixed per relation.
struct RowPtrHash {
  size_t width;
  size_t operator()(const uint32_t* row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t k = 0; k < width; ++k) h = util::Mix64(row[k] + h);
    return static_cast<size_t>(h);
  }
};

struct RowPtrEq {
  size_t width;
  bool operator()(const uint32_t* a, const uint32_t* b) const {
    return std::equal(a, a + width, b);
  }
};

/// Hashed dedup over the flat code array; first occurrence wins the
/// representative slot, matching scan order.
std::vector<DistinctRow> Deduplicate(const std::vector<uint32_t>& codes,
                                     size_t width) {
  const size_t num_rows = width == 0 ? 0 : codes.size() / width;
  std::unordered_map<const uint32_t*, size_t, RowPtrHash, RowPtrEq> seen(
      num_rows, RowPtrHash{width}, RowPtrEq{width});
  std::vector<DistinctRow> out;
  for (size_t i = 0; i < num_rows; ++i) {
    const uint32_t* row = codes.data() + i * width;
    auto [it, inserted] = seen.try_emplace(row, out.size());
    if (inserted) {
      out.push_back(DistinctRow{row, 1, static_cast<uint32_t>(i)});
    } else {
      ++out[it->second].count;
    }
  }
  return out;
}

/// Per-P-row lookup structure: sorted (code, bitmask-of-j-positions).
struct PRowLookup {
  std::vector<std::pair<uint32_t, uint32_t>> entries;  // (code, j-mask)

  PRowLookup(const uint32_t* codes, size_t width) {
    for (size_t j = 0; j < width; ++j) {
      entries.emplace_back(codes[j], uint32_t{1} << j);
    }
    std::sort(entries.begin(), entries.end());
    // Collapse duplicate codes within the row into one mask.
    size_t w = 0;
    for (size_t k = 0; k < entries.size(); ++k) {
      if (w > 0 && entries[w - 1].first == entries[k].first) {
        entries[w - 1].second |= entries[k].second;
      } else {
        entries[w++] = entries[k];
      }
    }
    entries.resize(w);
  }

  /// Bitmask of P attribute positions j whose value code equals `code`.
  /// Rows are ≤4 distinct codes in the measured common case, where a
  /// branch-predictable linear scan beats std::lower_bound.
  uint32_t Match(uint32_t code) const {
    if (entries.size() <= 4) {
      for (const auto& e : entries) {
        if (e.first == code) return e.second;
      }
      return 0;
    }
    auto it = std::lower_bound(
        entries.begin(), entries.end(), code,
        [](const auto& e, uint32_t c) { return e.first < c; });
    if (it != entries.end() && it->first == code) return it->second;
    return 0;
  }
};

/// Hash/equality over only the words Ω occupies (1 for instances up to
/// 8×8 attributes, 4 worst-case) — the signature map is probed once per
/// R′ × P′ pair, making the hash width the dominant build cost.
struct PrefixSigHash {
  size_t words;
  size_t operator()(const JoinPredicate& sig) const {
    return sig.HashPrefix(words);
  }
};
struct PrefixSigEq {
  size_t words;
  bool operator()(const JoinPredicate& a, const JoinPredicate& b) const {
    return a.EqualsPrefix(b, words);
  }
};
using ShardMap =
    std::unordered_map<JoinPredicate, uint32_t, PrefixSigHash, PrefixSigEq>;

/// Worker-private output of the classification pass over one contiguous
/// block of distinct R rows. Local class order is first-occurrence order
/// within the block.
struct ClassShard {
  std::vector<SignatureClass> classes;
  ShardMap class_of;

  explicit ClassShard(size_t words)
      : class_of(16, PrefixSigHash{words}, PrefixSigEq{words}) {}
};

/// Every class id in (|T(c)|, id) order, by a stable counting sort over
/// the signature popcounts: the popcount buckets laid end to end, bucket k
/// spanning [starts[k], starts[k + 1]) of the result. Every signature must
/// lie in Ω, so its popcount is that of Ω's words and at most omega_size.
std::vector<ClassId> OrderBySize(std::span<const SignatureClass> classes,
                                 size_t omega_size,
                                 std::vector<uint32_t>& starts) {
  const size_t words = JoinPredicate::WordsFor(omega_size);
  std::vector<uint16_t> sizes(classes.size());
  starts.assign(omega_size + 2, 0);
  for (size_t a = 0; a < classes.size(); ++a) {
    sizes[a] = static_cast<uint16_t>(classes[a].signature.CountPrefix(words));
    ++starts[sizes[a] + 1];
  }
  for (size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
  std::vector<uint32_t> next(starts.begin(), starts.end() - 1);
  std::vector<ClassId> order(classes.size());
  for (size_t a = 0; a < classes.size(); ++a) {
    order[next[sizes[a]]++] = static_cast<ClassId>(a);
  }
  return order;
}

}  // namespace

EncodedInstance EncodeInstance(const rel::Relation& r, const rel::Relation& p) {
  // One shared global dictionary; per-column remap tables translate each
  // relation's local codes into it. A (column, local code) pair consults
  // the global dictionary exactly once — every later cell holding that
  // value is a single array read — and the row-major walk order makes the
  // assignment identical to the reference's cell-by-cell first-occurrence
  // numbering.
  rel::ColumnDictionary global;
  uint32_t next_null_code = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kUnmapped = 0xFFFFFFFFu;  // No global code < this one
                                               // can exist: the exhaustion
                                               // check fires first.

  auto encode = [&](const rel::ColumnTable& t) {
    const size_t cols = t.num_columns();
    const size_t rows = t.num_rows();
    std::vector<std::vector<uint32_t>> remap(cols);
    std::vector<std::span<const uint32_t>> codes(cols);
    for (size_t c = 0; c < cols; ++c) {
      remap[c].assign(t.dictionary(c).size(), kUnmapped);
      codes[c] = t.codes(c);
    }
    std::vector<uint32_t> out;
    out.reserve(rows * cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t c = 0; c < cols; ++c) {
        const uint32_t local = codes[c][i];
        if (local == rel::kNullCellCode) {
          JINFER_CHECK(global.size() < next_null_code,
                       "dictionary code space exhausted");
          out.push_back(next_null_code--);
          continue;
        }
        uint32_t& g = remap[c][local];
        if (g == kUnmapped) {
          JINFER_CHECK(global.size() < next_null_code,
                       "dictionary code space exhausted");
          g = global.EncodeView(t.dictionary(c).view(local));
        }
        out.push_back(g);
      }
    }
    return out;
  };

  EncodedInstance encoded;
  encoded.r_codes = encode(r.columns());
  encoded.p_codes = encode(p.columns());
  return encoded;
}

util::Result<SignatureIndex> SignatureIndex::Build(
    const rel::Relation& r, const rel::Relation& p,
    const SignatureIndexOptions& options) {
  if (r.num_rows() == 0 || p.num_rows() == 0) {
    return util::Status::InvalidArgument(
        "SignatureIndex requires non-empty instances of both relations");
  }
  JINFER_ASSIGN_OR_RETURN(Omega omega, Omega::Make(r.schema(), p.schema()));
  return BuildFromEncoded(std::move(omega), EncodeInstance(r, p), options);
}

util::Result<SignatureIndex> SignatureIndex::BuildFromEncoded(
    Omega omega, EncodedInstance encoded,
    const SignatureIndexOptions& options) {
  SignatureIndex index;
  index.omega_ = std::move(omega);
  index.build_id_ = NextBuildId();
  index.compressed_ = options.compress;
  index.owned_r_codes_ = std::move(encoded.r_codes);
  index.owned_p_codes_ = std::move(encoded.p_codes);
  const size_t r_width = index.omega_.num_r_attrs();
  const size_t p_width = index.omega_.num_p_attrs();
  const size_t num_r_rows = index.owned_r_codes_.size() / r_width;
  const size_t num_p_rows = index.owned_p_codes_.size() / p_width;
  index.num_tuples_ =
      static_cast<uint64_t>(num_r_rows) * static_cast<uint64_t>(num_p_rows);

  std::vector<DistinctRow> r_rows, p_rows;
  if (options.compress) {
    r_rows = Deduplicate(index.owned_r_codes_, r_width);
    p_rows = Deduplicate(index.owned_p_codes_, p_width);
  } else {
    for (size_t i = 0; i < num_r_rows; ++i) {
      r_rows.push_back(DistinctRow{index.owned_r_codes_.data() + i * r_width,
                                   1, static_cast<uint32_t>(i)});
    }
    for (size_t j = 0; j < num_p_rows; ++j) {
      p_rows.push_back(DistinctRow{index.owned_p_codes_.data() + j * p_width,
                                   1, static_cast<uint32_t>(j)});
    }
  }

  // Codes appearing anywhere in P: R attributes whose value is absent from P
  // can never contribute an atom and are skipped per R row. Read-only after
  // this point, so shared across the workers below.
  std::unordered_set<uint32_t> codes_in_p;
  for (const auto& pr : p_rows) {
    for (size_t j = 0; j < p_width; ++j) codes_in_p.insert(pr.codes[j]);
  }

  std::vector<PRowLookup> p_lookups;
  p_lookups.reserve(p_rows.size());
  for (const auto& pr : p_rows) p_lookups.emplace_back(pr.codes, p_width);

  // Classification pass: each worker owns a contiguous block of distinct R
  // rows and a private signature→class table; JoinPredicate is a fixed-size
  // bitset, so the inner loop allocates nothing per pair.
  const size_t m = index.omega_.num_p_attrs();
  const size_t active_words = JoinPredicate::WordsFor(index.omega_.size());
  const size_t num_threads = util::ResolveThreadCount(options.threads);
  std::vector<ClassShard> shards(
      num_threads < r_rows.size() ? num_threads : r_rows.size(),
      ClassShard(active_words));
  util::ParallelFor(
      r_rows.size(), num_threads,
      [&](size_t block_begin, size_t block_end, size_t worker) {
        ClassShard& shard = shards[worker];
        std::vector<std::pair<size_t, uint32_t>> active;  // (i, code) in P
        for (size_t rk = block_begin; rk < block_end; ++rk) {
          const DistinctRow& rr = r_rows[rk];
          active.clear();
          for (size_t i = 0; i < r_width; ++i) {
            uint32_t code = rr.codes[i];
            if (codes_in_p.contains(code)) active.emplace_back(i, code);
          }
          for (size_t pk = 0; pk < p_rows.size(); ++pk) {
            JoinPredicate sig;
            for (const auto& [i, code] : active) {
              uint32_t jmask = p_lookups[pk].Match(code);
              while (jmask != 0) {
                size_t j = static_cast<size_t>(std::countr_zero(jmask));
                sig.Set(i * m + j);
                jmask &= jmask - 1;
              }
            }
            uint64_t weight = rr.count * p_rows[pk].count;
            if (options.compress) {
              auto [it, inserted] = shard.class_of.try_emplace(
                  sig, static_cast<uint32_t>(shard.classes.size()));
              if (inserted) {
                shard.classes.push_back(
                    SignatureClass{sig, weight, rr.rep, p_rows[pk].rep,
                                   false});
              } else {
                shard.classes[it->second].count += weight;
              }
            } else {
              // Ablation mode: one singleton class per tuple.
              shard.classes.push_back(
                  SignatureClass{sig, 1, rr.rep, p_rows[pk].rep, false});
            }
          }
        }
      });

  // Deterministic merge: walking the shards in worker order visits classes
  // in global first-occurrence order (blocks are contiguous and ascending),
  // so ids, counts and representatives match the serial build exactly.
  for (ClassShard& shard : shards) {
    for (SignatureClass& sc : shard.classes) {
      auto [it, inserted] = index.class_of_signature_.try_emplace(
          sc.signature, static_cast<ClassId>(index.owned_classes_.size()));
      if (inserted) {
        index.owned_classes_.push_back(std::move(sc));
      } else if (options.compress) {
        index.owned_classes_[it->second].count += sc.count;
      } else {
        index.owned_classes_.push_back(std::move(sc));
      }
    }
    shard.classes.clear();
    shard.class_of.clear();
  }

  // Mark ⊆-maximal signatures (TD's first phase visits them). A strict
  // superset has strictly larger popcount, so with the classes in
  // popcount order each signature is tested only against the buckets
  // above its own; equal-popcount signatures can never strictly contain
  // one another.
  std::vector<uint32_t> starts;
  const std::vector<ClassId> by_size =
      OrderBySize(index.owned_classes_, index.omega_.size(), starts);
  util::ParallelFor(
      by_size.size(), num_threads, [&](size_t begin, size_t end, size_t) {
        for (size_t a = begin; a < end; ++a) {
          const JoinPredicate& sig = index.owned_classes_[a].signature;
          const auto larger =
              by_size.begin() + starts[sig.CountPrefix(active_words) + 1];
          index.owned_classes_[a].maximal =
              std::none_of(larger, by_size.end(), [&](ClassId b) {
                return sig.IsSubsetOfPrefix(
                    index.owned_classes_[b].signature, active_words);
              });
        }
      });

  // Point the read surface at the owned buffers. Safe across moves: moving
  // a vector transfers its heap buffer, so the span targets stay put.
  index.classes_ = index.owned_classes_;
  index.r_codes_ = index.owned_r_codes_;
  index.p_codes_ = index.owned_p_codes_;
  index.DeriveClassLists();
  return index;
}

util::Result<SignatureIndex> SignatureIndex::FromSections(
    Omega omega, uint64_t num_tuples, bool compressed,
    std::span<const SignatureClass> classes, std::span<const uint32_t> r_codes,
    std::span<const uint32_t> p_codes, std::shared_ptr<const void> storage) {
  const size_t r_width = omega.num_r_attrs();
  const size_t p_width = omega.num_p_attrs();
  if (r_width == 0 || p_width == 0 || r_codes.size() % r_width != 0 ||
      p_codes.size() % p_width != 0 || r_codes.empty() || p_codes.empty()) {
    return util::Status::ParseError(
        "index sections: code arrays inconsistent with the schema widths");
  }
  const uint64_t expected_tuples =
      static_cast<uint64_t>(r_codes.size() / r_width) *
      static_cast<uint64_t>(p_codes.size() / p_width);
  if (num_tuples != expected_tuples) {
    return util::Status::ParseError(util::StrFormat(
        "index sections: num_tuples %llu does not match %llu encoded rows",
        static_cast<unsigned long long>(num_tuples),
        static_cast<unsigned long long>(expected_tuples)));
  }

  SignatureIndex index;
  index.omega_ = std::move(omega);
  index.build_id_ = NextBuildId();
  index.compressed_ = compressed;
  index.num_tuples_ = num_tuples;
  index.storage_ = std::move(storage);
  index.classes_ = classes;
  index.r_codes_ = r_codes;
  index.p_codes_ = p_codes;
  JINFER_RETURN_NOT_OK(index.IndexSignatures());
  index.DeriveClassLists();
  return index;
}

util::Status SignatureIndex::IndexSignatures() {
  class_of_signature_.clear();
  class_of_signature_.reserve(classes_.size());
  const JoinPredicate omega = omega_.Full();
  uint64_t total = 0;
  uint32_t max_row_r = 0, max_row_p = 0;
  for (size_t a = 0; a < classes_.size(); ++a) {
    const SignatureClass& sc = classes_[a];
    // Everything downstream (Omega::Format, the popcount order) indexes by
    // signature bit, so a bit past |Ω| must never get in.
    if (!sc.signature.IsSubsetOf(omega)) {
      return util::Status::ParseError(util::StrFormat(
          "index sections: class %zu has a signature outside Omega "
          "(|Omega| = %zu)", a, omega_.size()));
    }
    auto [it, inserted] = class_of_signature_.try_emplace(
        sc.signature, static_cast<ClassId>(a));
    // Compressed indexes have one class per signature; in the uncompressed
    // ablation shape duplicates are expected and the first class wins the
    // map slot, matching Build's merge order.
    if (!inserted && compressed_) {
      return util::Status::ParseError(util::StrFormat(
          "index sections: duplicate signature in classes %u and %zu of a "
          "compressed index", it->second, a));
    }
    total += sc.count;
    max_row_r = std::max(max_row_r, sc.rep_r);
    max_row_p = std::max(max_row_p, sc.rep_p);
  }
  if (total != num_tuples_) {
    return util::Status::ParseError(util::StrFormat(
        "index sections: class counts sum to %llu, expected |D| = %llu",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(num_tuples_)));
  }
  if (max_row_r >= num_r_rows() || max_row_p >= num_p_rows()) {
    return util::Status::ParseError(
        "index sections: class representative outside the encoded rows");
  }
  return util::Status::OK();
}

void SignatureIndex::DeriveClassLists() {
  std::vector<uint32_t> starts;
  classes_by_size_ = OrderBySize(classes_, omega_.size(), starts);
  maximal_classes_.clear();
  for (size_t a = 0; a < classes_.size(); ++a) {
    if (classes_[a].maximal) {
      maximal_classes_.push_back(static_cast<ClassId>(a));
    }
  }
}

std::optional<ClassId> SignatureIndex::ClassOfSignature(
    const JoinPredicate& sig) const {
  auto it = class_of_signature_.find(sig);
  if (it == class_of_signature_.end()) return std::nullopt;
  return it->second;
}

JoinPredicate SignatureIndex::SignatureOfPair(size_t r_row,
                                              size_t p_row) const {
  JINFER_CHECK(r_row < num_r_rows() && p_row < num_p_rows(),
               "tuple (%zu,%zu) outside instance", r_row, p_row);
  const size_t n = omega_.num_r_attrs();
  const size_t m = omega_.num_p_attrs();
  const uint32_t* rc = r_codes_.data() + r_row * n;
  const uint32_t* pc = p_codes_.data() + p_row * m;
  JoinPredicate sig;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (rc[i] == pc[j]) sig.Set(i * m + j);
    }
  }
  return sig;
}

uint64_t SignatureIndex::CountSelected(const JoinPredicate& theta) const {
  uint64_t total = 0;
  for (const auto& c : classes_) {
    if (theta.IsSubsetOf(c.signature)) total += c.count;
  }
  return total;
}

bool SignatureIndex::EquivalentOnInstance(const JoinPredicate& theta1,
                                          const JoinPredicate& theta2) const {
  for (const auto& c : classes_) {
    if (theta1.IsSubsetOf(c.signature) != theta2.IsSubsetOf(c.signature)) {
      return false;
    }
  }
  return true;
}

bool SignatureIndex::IsNonNullable(const JoinPredicate& theta) const {
  for (const auto& c : classes_) {
    if (theta.IsSubsetOf(c.signature)) return true;
  }
  return false;
}

}  // namespace core
}  // namespace jinfer
