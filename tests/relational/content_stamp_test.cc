// Content stamps: a process-unique name for a table's finished rows, which
// IndexCache trusts in place of a fingerprint. Every way contents change
// must change the stamp, and no two contents may share one.

#include <array>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/column_table.h"
#include "relational/relation.h"

namespace jinfer {
namespace rel {
namespace {

Relation TwoRows() {
  auto r = Relation::Make("R", {"A", "B"}, {{0, 1}, {2, "x"}});
  JINFER_CHECK(r.ok(), "fixture");
  return std::move(r).ValueOrDie();
}

TEST(ContentStampTest, NonZeroAndStableAcrossReads) {
  const Relation r = TwoRows();
  const uint64_t stamp = r.content_stamp();
  EXPECT_NE(stamp, 0u);
  EXPECT_EQ(r.content_stamp(), stamp);
  EXPECT_EQ(r.columns().content_stamp(), stamp);
  // Reads of any kind leave it alone.
  (void)r.rows();
  (void)r.ToString();
  EXPECT_EQ(r.content_stamp(), stamp);
}

TEST(ContentStampTest, EveryFinishedRowChangesIt) {
  Relation r = TwoRows();
  const uint64_t before = r.content_stamp();
  ASSERT_TRUE(r.AppendRow({3, 4}).ok());
  const uint64_t appended = r.content_stamp();
  EXPECT_NE(appended, before);

  // A half-appended row is not visible, so it names the same contents.
  ColumnTable& t = r.mutable_columns();
  t.AppendInt(5);
  EXPECT_EQ(r.content_stamp(), appended);
  t.AppendNull();
  t.FinishRow();
  const uint64_t finished = r.content_stamp();
  EXPECT_NE(finished, appended);
  EXPECT_NE(finished, before);
}

TEST(ContentStampTest, CopiesAndMovesNeverCarryTheSourceStamp) {
  Relation source = TwoRows();
  std::set<uint64_t> seen{source.content_stamp()};
  const auto fresh = [&](const Relation& r) {
    EXPECT_TRUE(seen.insert(r.content_stamp()).second)
        << "stamp " << r.content_stamp() << " named two contents";
  };

  const Relation copied(source);
  fresh(copied);
  Relation copy_assigned = TwoRows();
  seen.insert(copy_assigned.content_stamp());
  copy_assigned = source;
  fresh(copy_assigned);

  const uint64_t before_move = source.content_stamp();
  const Relation moved(std::move(source));
  fresh(moved);
  // The moved-from source holds other contents now, under a new stamp.
  EXPECT_NE(source.content_stamp(), before_move);
  fresh(source);

  Relation move_assigned = TwoRows();
  seen.insert(move_assigned.content_stamp());
  Relation donor = TwoRows();
  const uint64_t donor_stamp = donor.content_stamp();
  seen.insert(donor_stamp);
  move_assigned = std::move(donor);
  fresh(move_assigned);
  EXPECT_NE(donor.content_stamp(), donor_stamp);

  // Equal contents built apart are still two contents.
  std::vector<Relation> twins;
  for (int i = 0; i < 16; ++i) twins.push_back(TwoRows());
  for (const Relation& twin : twins) fresh(twin);
}

TEST(ContentStampTest, ConcurrentFirstReadersAgree) {
  constexpr int kThreads = 8;
  for (int round = 0; round < 32; ++round) {
    const Relation r = TwoRows();  // Unstamped until the first read.
    std::atomic<int> ready{0};
    std::array<uint64_t, kThreads> got{};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[t] = r.content_stamp();
      });
    }
    for (auto& reader : readers) reader.join();
    for (uint64_t stamp : got) {
      EXPECT_NE(stamp, 0u);
      EXPECT_EQ(stamp, got[0]);
    }
    EXPECT_EQ(r.content_stamp(), got[0]);
  }
}

}  // namespace
}  // namespace rel
}  // namespace jinfer
