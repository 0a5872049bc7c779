// The clock seam (util/stopwatch.h): FakeClock makes a duration decision
// in the runtime an exact assertion instead of a sleep — the cache's
// failure-backoff window cranks the injected clock here.

#include "util/stopwatch.h"

#include <chrono>

#include <gtest/gtest.h>

#include "runtime/index_cache.h"
#include "util/failpoint.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace obs {
namespace {

using std::chrono::milliseconds;

class ClockTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Failpoints::Reset(); }
  void TearDown() override { util::Failpoints::Reset(); }
};

TEST_F(ClockTest, SystemClockIsMonotonicAndNonNull) {
  const util::MonotonicClock* clock = util::SystemClock();
  ASSERT_NE(clock, nullptr);
  const uint64_t a = clock->NowNanos();
  const uint64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
}

TEST_F(ClockTest, FakeClockAdvancesOnlyWhenTold) {
  util::FakeClock clock(1000);
  EXPECT_EQ(clock.NowNanos(), 1000u);
  EXPECT_EQ(clock.NowNanos(), 1000u);
  clock.AdvanceNanos(500);
  EXPECT_EQ(clock.NowNanos(), 1500u);
  clock.Advance(milliseconds(2));
  EXPECT_EQ(clock.NowNanos(), 1500u + 2000000u);
}

TEST_F(ClockTest, CacheBackoffWindowExpiresOnTheInjectedClock) {
  auto inst = workload::GenerateSynthetic({2, 2, 15, 4}, 3);
  ASSERT_TRUE(inst.ok());

  util::FakeClock clock;
  runtime::IndexCacheOptions options;
  options.clock = &clock;
  options.failure_backoff_base = milliseconds(100);
  options.failure_backoff_max = milliseconds(5000);
  runtime::IndexCache cache(options);

  // One injected transient build failure arms a 100 ms window.
  ASSERT_TRUE(util::Failpoints::Arm("cache.build", "count:1").ok());
  EXPECT_FALSE(cache.GetOrBuild(inst->r, inst->p).ok());

  // Inside the window every lookup fails fast without building.
  EXPECT_TRUE(
      cache.GetOrBuild(inst->r, inst->p).status().IsUnavailable());
  clock.Advance(milliseconds(99));
  EXPECT_TRUE(
      cache.GetOrBuild(inst->r, inst->p).status().IsUnavailable());
  EXPECT_EQ(cache.stats().fail_fast, 2u);

  // One more tick crosses the boundary: the next lookup retries for real
  // and succeeds (the failpoint retired itself after one trip).
  clock.Advance(milliseconds(2));
  EXPECT_TRUE(cache.GetOrBuild(inst->r, inst->p).ok());
  EXPECT_EQ(cache.stats().fail_fast, 2u);
}

}  // namespace
}  // namespace obs
}  // namespace jinfer
