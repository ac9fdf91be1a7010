// Unit tests of the benchmark's pure helpers against hand-built sample
// vectors and span sets.
#include "fold.h"

#include <gtest/gtest.h>

namespace maabe::perfbench {
namespace {

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank({}, 50), 0);
  EXPECT_EQ(nearest_rank({7}, 50), 7);
  EXPECT_EQ(nearest_rank(one_to(10), 50), 5);    // rank ceil(5) = 5
  EXPECT_EQ(nearest_rank(one_to(10), 91), 10);   // rank ceil(9.1) = 10
  EXPECT_EQ(nearest_rank(one_to(100), 99), 99);
  EXPECT_EQ(nearest_rank(one_to(4), 100), 4);
  EXPECT_EQ(median(one_to(5)), 3);
  EXPECT_EQ(median(one_to(4)), 2);               // rank ceil(2) = 2
}

TEST(Tail, AbsentBelowTwentySamples) {
  EXPECT_FALSE(tail(one_to(19)).present);
  EXPECT_TRUE(tail(one_to(20)).present);
}

TEST(Tail, LeavesTenSamplesBeyond) {
  const Tail t20 = tail(one_to(20));
  EXPECT_EQ(t20.value, 10);  // samples 11..20 lie beyond it
  EXPECT_DOUBLE_EQ(t20.percentile, 50);
  const Tail t150 = tail(one_to(150));
  EXPECT_EQ(t150.value, 140);
  // The percentile reported is the one whose nearest rank is the value.
  EXPECT_EQ(nearest_rank(one_to(150), t150.percentile), t150.value);
}

TEST(Tail, AlwaysTenBeyondBelowTheCap) {
  for (size_t n = 20; n < 200; ++n) {
    const Tail t = tail(one_to(n));
    EXPECT_EQ(t.value, static_cast<double>(n - 10)) << n;
  }
}

TEST(Tail, CappedAtP95) {
  const Tail t200 = tail(one_to(200));  // where both rules meet
  EXPECT_EQ(t200.value, 190);
  EXPECT_DOUBLE_EQ(t200.percentile, 95);
  const Tail t1000 = tail(one_to(1000));
  EXPECT_EQ(t1000.value, 950);  // 50 samples beyond, not 10
  EXPECT_DOUBLE_EQ(t1000.percentile, 95);
}

SpanRec span(uint64_t id, uint64_t parent, const char* name, uint64_t start_ms,
             uint64_t end_ms) {
  return {id, parent, name, start_ms * 1000000, end_ms * 1000000};
}

TEST(Fold, SelfTimeSubtractsChildren) {
  const Fold f = fold_spans({span(1, 0, "bench.download", 0, 100),
                             span(2, 1, "system.download", 10, 90),
                             span(3, 2, "transport.frame", 20, 30),
                             span(4, 2, "transport.frame", 40, 60)},
                            "bench.");
  EXPECT_EQ(f.orphan_spans, 0u);
  EXPECT_DOUBLE_EQ(f.rows.at("bench.download").self_ms, 20);
  EXPECT_DOUBLE_EQ(f.rows.at("bench.download").total_ms, 100);
  EXPECT_DOUBLE_EQ(f.rows.at("system.download").self_ms, 50);
  EXPECT_EQ(f.rows.at("transport.frame").count, 2u);
  EXPECT_DOUBLE_EQ(f.rows.at("transport.frame").self_ms, 30);
}

TEST(Fold, ParallelChildrenCountOnce) {
  // Two workers cover [10,60) and [30,80): together 70 ms of the parent.
  const Fold f = fold_spans({span(1, 0, "bench.revoke", 0, 100),
                             span(2, 1, "server.reencrypt_slot", 10, 60),
                             span(3, 1, "server.reencrypt_slot", 30, 80)},
                            "bench.");
  EXPECT_DOUBLE_EQ(f.rows.at("bench.revoke").self_ms, 30);
  EXPECT_DOUBLE_EQ(f.rows.at("server.reencrypt_slot").self_ms, 100);
}

TEST(Fold, ChildrenAreClippedToTheParent) {
  const Fold f = fold_spans({span(1, 0, "bench.store", 0, 50),
                             span(2, 1, "late", 40, 70)},
                            "bench.");
  EXPECT_DOUBLE_EQ(f.rows.at("bench.store").self_ms, 40);
}

TEST(Fold, OrphansKeptInTheirOwnBucket) {
  const Fold f = fold_spans({span(1, 0, "bench.revoke", 0, 100),
                             span(2, 1, "server.reencrypt_stage", 0, 90),
                             // A worker's span that lost its context: a new root.
                             span(3, 0, "engine.pair", 20, 25),
                             // A span whose parent was never recorded.
                             span(4, 99, "transport.frame", 30, 40),
                             // The orphan's own child is not an orphan.
                             span(5, 4, "transport.recv", 32, 38)},
                            "bench.");
  EXPECT_EQ(f.orphan_spans, 2u);
  EXPECT_DOUBLE_EQ(f.rows.at("(orphan)/engine.pair").self_ms, 5);
  EXPECT_DOUBLE_EQ(f.rows.at("(orphan)/transport.frame").self_ms, 4);
  EXPECT_EQ(f.rows.count("engine.pair"), 0u);
  EXPECT_EQ(f.rows.at("transport.recv").count, 1u);
  // Orphans explain none of the op's time.
  EXPECT_DOUBLE_EQ(f.rows.at("bench.revoke").self_ms, 10);
}

}  // namespace
}  // namespace maabe::perfbench
