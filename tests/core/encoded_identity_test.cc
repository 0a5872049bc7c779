// Encoded-vs-legacy identity: the columnar encode + build must be
// bit-identical to the retained row-major reference pipeline in every
// observable — global code arrays, the class table (signatures, counts,
// representatives, maximality), and full inference-session transcripts —
// at 1 and 4 build threads, compressed and uncompressed. This is the
// contract that let the ColumnTable refactor (DESIGN.md §9) land without
// perturbing anything downstream: same codes in, same index out.

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "relational/csv.h"
#include "relational/relation.h"
#include "semijoin/reduction_3sat.h"
#include "sat/random_cnf.h"
#include "testing/encode_reference.h"
#include "util/rng.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace jinfer {
namespace core {
namespace {

struct Instance {
  std::string name;
  rel::Relation r;
  rel::Relation p;
};

std::vector<Instance> TestInstances() {
  std::vector<Instance> out;

  for (uint64_t seed : {7u, 99u}) {
    auto inst = workload::GenerateSynthetic({3, 3, 60, 12}, seed);
    JINFER_CHECK(inst.ok(), "synthetic");
    out.push_back({"synthetic-" + std::to_string(seed), std::move(inst->r),
                   std::move(inst->p)});
  }

  {
    // Mixed runtime types, NULLs, duplicate rows, quoted strings.
    auto r = rel::ReadRelationCsvText(
        "A1,A2,A3\n1,x,3.5\n,\"x,y\",2\n\"\",abc,\n7,\"7\",7.5\n1,x,3.5\n",
        "R");
    auto p = rel::ReadRelationCsvText(
        "B1,B2\nx,1\nabc,3.5\n,\n2,7\nx,1\n", "P");
    JINFER_CHECK(r.ok() && p.ok(), "csv");
    out.push_back({"csv-mixed", std::move(*r), std::move(*p)});
  }

  {
    // NaN cells: never equal to anything (IEEE), so like NULL each
    // occurrence must get a fresh code — the reference's Value-keyed map
    // does this implicitly (Value(NaN) equals no stored key), the columnar
    // dictionary does it explicitly. "nan" parses as a double via
    // std::from_chars, same as the seed's Value::FromCsvField.
    auto r = rel::ReadRelationCsvText(
        "A1,A2\nnan,1\nnan,nan\n1.5,nan\n1.5,1\n", "R");
    auto p = rel::ReadRelationCsvText("B1\nnan\n1\n1.5\n", "P");
    JINFER_CHECK(r.ok() && p.ok(), "nan csv");
    out.push_back({"nan-doubles", std::move(*r), std::move(*p)});
  }

  {
    // The appendix A.1 reduction output is the NULL-heaviest instance in
    // the tree: bottom values everywhere, none of which may ever join.
    util::Rng rng(5);
    sat::Cnf phi = sat::Random3Cnf(5, 18, rng);
    auto reduced = semi::ReduceFrom3Sat(phi);
    JINFER_CHECK(reduced.ok(), "reduction");
    out.push_back({"3sat-nulls", std::move(reduced->r),
                   std::move(reduced->p)});
  }

  {
    auto db = workload::GenerateTpch(workload::MiniScaleA(), 7);
    JINFER_CHECK(db.ok(), "tpch");
    out.push_back({"tpch-j1", std::move(db->part), std::move(db->partsupp)});
  }

  return out;
}

std::vector<rel::Row> Materialize(const rel::Relation& rel) {
  return rel.rows();
}

void ExpectIndexesIdentical(const SignatureIndex& a, const SignatureIndex& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.num_tuples(), b.num_tuples());
  EXPECT_EQ(a.compressed(), b.compressed());
  ASSERT_EQ(a.r_codes().size(), b.r_codes().size());
  ASSERT_EQ(a.p_codes().size(), b.p_codes().size());
  EXPECT_TRUE(std::equal(a.r_codes().begin(), a.r_codes().end(),
                         b.r_codes().begin()));
  EXPECT_TRUE(std::equal(a.p_codes().begin(), a.p_codes().end(),
                         b.p_codes().begin()));
  for (ClassId c = 0; c < a.num_classes(); ++c) {
    const SignatureClass& ca = a.cls(c);
    const SignatureClass& cb = b.cls(c);
    ASSERT_TRUE(ca.signature == cb.signature) << "class " << c;
    EXPECT_EQ(ca.count, cb.count) << "class " << c;
    EXPECT_EQ(ca.rep_r, cb.rep_r) << "class " << c;
    EXPECT_EQ(ca.rep_p, cb.rep_p) << "class " << c;
    EXPECT_EQ(ca.maximal, cb.maximal) << "class " << c;
  }
}

TEST(EncodedIdentityTest, ColumnarEncodeMatchesRowMajorReference) {
  for (const Instance& inst : TestInstances()) {
    SCOPED_TRACE(inst.name);
    EncodedInstance columnar = EncodeInstance(inst.r, inst.p);
    EncodedInstance reference =
        EncodeInstanceReference(Materialize(inst.r), Materialize(inst.p));
    EXPECT_EQ(columnar.r_codes, reference.r_codes);
    EXPECT_EQ(columnar.p_codes, reference.p_codes);
  }
}

TEST(EncodedIdentityTest, BuiltIndexBitIdenticalAcrossPathsAndThreads) {
  for (const Instance& inst : TestInstances()) {
    std::vector<rel::Row> r_rows = Materialize(inst.r);
    std::vector<rel::Row> p_rows = Materialize(inst.p);
    for (bool compress : {true, false}) {
      for (int threads : {1, 4}) {
        SignatureIndexOptions options{.compress = compress,
                                      .threads = threads};
        auto built = SignatureIndex::Build(inst.r, inst.p, options);
        auto reference = BuildReferenceRowMajor(
            inst.r.schema(), r_rows, inst.p.schema(), p_rows, options);
        ASSERT_TRUE(built.ok()) << inst.name;
        ASSERT_TRUE(reference.ok()) << inst.name;
        ExpectIndexesIdentical(
            *built, *reference,
            inst.name + (compress ? "/compressed" : "/uncompressed") +
                "/threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(EncodedIdentityTest, SessionTranscriptsIdenticalAcrossPaths) {
  for (const Instance& inst : TestInstances()) {
    SCOPED_TRACE(inst.name);
    auto built = SignatureIndex::Build(inst.r, inst.p);
    auto reference = BuildReferenceRowMajor(
        inst.r.schema(), Materialize(inst.r), inst.p.schema(),
        Materialize(inst.p));
    ASSERT_TRUE(built.ok() && reference.ok());

    for (StrategyKind kind :
         {StrategyKind::kTopDown, StrategyKind::kLookahead1}) {
      SCOPED_TRACE(StrategyKindName(kind));
      JoinPredicate goal = built->cls(0).signature;
      auto run = [&](const SignatureIndex& index) {
        auto strategy = MakeStrategy(kind, 11);
        GoalOracle oracle(goal);
        auto result = RunInference(index, *strategy, oracle, {});
        JINFER_CHECK(result.ok(), "inference");
        return *std::move(result);
      };
      InferenceResult a = run(*built);
      InferenceResult b = run(*reference);
      EXPECT_EQ(a.num_interactions, b.num_interactions);
      EXPECT_TRUE(a.predicate == b.predicate);
      // Step by step: the class asked, the rows a user would be shown for
      // it, the answer and the informative weight left before asking.
      ASSERT_EQ(a.trace.size(), b.trace.size());
      for (size_t q = 0; q < a.trace.size(); ++q) {
        SCOPED_TRACE("question " + std::to_string(q));
        const InteractionRecord& ra = a.trace[q];
        const InteractionRecord& rb = b.trace[q];
        EXPECT_EQ(ra.cls, rb.cls);
        EXPECT_EQ(built->cls(ra.cls).rep_r, reference->cls(rb.cls).rep_r);
        EXPECT_EQ(built->cls(ra.cls).rep_p, reference->cls(rb.cls).rep_p);
        EXPECT_EQ(ra.label, rb.label);
        EXPECT_EQ(ra.informative_before, rb.informative_before);
      }
    }
  }
}

TEST(EncodedIdentityTest, NullCodesNeverCollideOrJoin) {
  // Appendix A.1 bottom-value regression at the encode level: every NULL
  // cell gets a distinct code, disjoint from every non-null code, so no
  // NULL ever joins anything — including another NULL of the same column.
  auto r = rel::Relation::Make("R", {"A1", "A2"},
                               {{rel::Value(), 1}, {rel::Value(), rel::Value()}});
  auto p = rel::Relation::Make("P", {"B1"}, {{rel::Value()}, {1}});
  ASSERT_TRUE(r.ok() && p.ok());
  EncodedInstance enc = EncodeInstance(*r, *p);
  // The four NULL cells produced four distinct codes from the descending
  // range, disjoint from the ascending non-null range.
  std::vector<uint32_t> nulls = {enc.r_codes[0], enc.r_codes[2],
                                 enc.r_codes[3], enc.p_codes[0]};
  std::sort(nulls.begin(), nulls.end());
  EXPECT_TRUE(std::adjacent_find(nulls.begin(), nulls.end()) == nulls.end());
  for (uint32_t n : nulls) EXPECT_GT(n, 0x80000000u);
  // And the index agrees: the only tuples with a non-empty signature are
  // the 1-1 matches.
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  uint64_t matching = 0;
  for (ClassId c = 0; c < index->num_classes(); ++c) {
    if (index->cls(c).signature.Count() > 0) matching += index->cls(c).count;
  }
  EXPECT_EQ(matching, 1u);  // Only (row1 of R, row2 of P) joins on A2=B1=1.
}

}  // namespace
}  // namespace core
}  // namespace jinfer
