// Reference model for the bitset differential fuzzer: a
// std::vector<bool>-backed set with the same op vocabulary as
// util::SmallBitset, written in the most naive way possible (per-bit
// loops, no words, no prefixes) so a disagreement always indicts the
// production bitset. tests/util/bitset_fuzz_test.cc drives SmallBitset and
// the model through identical op sequences and compares every observable
// after every op.

#ifndef JINFER_TESTS_TESTING_BITSET_MODEL_H_
#define JINFER_TESTS_TESTING_BITSET_MODEL_H_

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace jinfer {
namespace testing {

/// The reference set. Unbounded: Set grows, Test beyond the current size
/// reads 0; equality and subset ignore trailing zeros.
class BoolVecModel {
 public:
  BoolVecModel() = default;
  explicit BoolVecModel(size_t nbits) : bits_(nbits, false) {}

  static BoolVecModel AllSet(size_t n) {
    BoolVecModel m(n);
    for (size_t b = 0; b < n; ++b) m.bits_[b] = true;
    return m;
  }

  void Set(size_t bit) {
    if (bit >= bits_.size()) bits_.resize(bit + 1, false);
    bits_[bit] = true;
  }
  void Reset(size_t bit) {
    if (bit < bits_.size()) bits_[bit] = false;
  }
  bool Test(size_t bit) const { return bit < bits_.size() && bits_[bit]; }

  size_t Count() const {
    size_t c = 0;
    for (bool b : bits_) c += b ? 1 : 0;
    return c;
  }

  size_t Extent() const { return bits_.size(); }

  bool IsSubsetOf(const BoolVecModel& o) const {
    for (size_t b = 0; b < bits_.size(); ++b) {
      if (Test(b) && !o.Test(b)) return false;
    }
    return true;
  }
  bool Equals(const BoolVecModel& o) const {
    size_t n = bits_.size() > o.bits_.size() ? bits_.size() : o.bits_.size();
    for (size_t b = 0; b < n; ++b) {
      if (Test(b) != o.Test(b)) return false;
    }
    return true;
  }

  static BoolVecModel And(const BoolVecModel& a, const BoolVecModel& b) {
    return Combine(a, b, [](bool x, bool y) { return x && y; });
  }
  static BoolVecModel Or(const BoolVecModel& a, const BoolVecModel& b) {
    return Combine(a, b, [](bool x, bool y) { return x || y; });
  }
  static BoolVecModel Xor(const BoolVecModel& a, const BoolVecModel& b) {
    return Combine(a, b, [](bool x, bool y) { return x != y; });
  }
  static BoolVecModel Minus(const BoolVecModel& a, const BoolVecModel& b) {
    return Combine(a, b, [](bool x, bool y) { return x && !y; });
  }

  std::vector<size_t> SetBits() const {
    std::vector<size_t> out;
    for (size_t b = 0; b < bits_.size(); ++b) {
      if (bits_[b]) out.push_back(b);
    }
    return out;
  }

 private:
  template <typename Fn>
  static BoolVecModel Combine(const BoolVecModel& a, const BoolVecModel& b,
                              Fn&& fn) {
    size_t n = a.bits_.size() > b.bits_.size() ? a.bits_.size()
                                               : b.bits_.size();
    BoolVecModel out(n);
    for (size_t i = 0; i < n; ++i) out.bits_[i] = fn(a.Test(i), b.Test(i));
    return out;
  }

  std::vector<bool> bits_;
};

/// Asserts every observable of a production bitset against the model over
/// bit universe [0, universe): per-bit Test, Count, and the set bits in
/// ForEachSetBit order.
template <typename B>
void ExpectMatchesModel(const B& mine, const BoolVecModel& ref,
                        size_t universe) {
  ASSERT_EQ(mine.Count(), ref.Count());
  for (size_t b = 0; b < universe; ++b) {
    ASSERT_EQ(mine.Test(b), ref.Test(b)) << "bit " << b;
  }
  std::vector<size_t> via_foreach;
  mine.ForEachSetBit([&](size_t bit) { via_foreach.push_back(bit); });
  ASSERT_EQ(via_foreach, ref.SetBits());
}

}  // namespace testing
}  // namespace jinfer

#endif  // JINFER_TESTS_TESTING_BITSET_MODEL_H_
