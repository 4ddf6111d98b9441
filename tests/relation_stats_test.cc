// The planner's statistics layer (relation.cc): exact distinct counts
// stay exact under incremental inserts and SortWindow promotion, the
// HyperLogLog estimate is order-independent and within tolerance, and
// LexPerm is the lexicographic trie order the leapfrog join assumes.
// The permutation sort kernel (radix from kRadixSortMinEntries up)
// gives exactly the comparison-sort order on both sides of its cutoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "chase/instance.h"
#include "chase/relation.h"

namespace triq {
namespace {

std::shared_ptr<Dictionary> Dict() { return std::make_shared<Dictionary>(); }

/// Exact distinct count of one column, recomputed from storage.
size_t TrueDistinct(const chase::Relation& rel, uint32_t pos) {
  std::set<uint64_t> values;
  for (chase::TupleView t : rel.tuples()) values.insert(t[pos].raw());
  return values.size();
}

TEST(RelationStatsTest, DistinctValuesExactUnderIncrementalInserts) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(3);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      db.AddFact("e", {"a" + std::to_string(rng() % 17),
                       "b" + std::to_string(rng() % 5)});
    }
    // Interleave reads with inserts: the cache must invalidate.
    const chase::Relation* rel = db.Find("e");
    ASSERT_NE(rel, nullptr);
    EXPECT_EQ(rel->DistinctValues(0), TrueDistinct(*rel, 0));
    EXPECT_EQ(rel->DistinctValues(1), TrueDistinct(*rel, 1));
    // Second read answers from the cache; same value.
    EXPECT_EQ(rel->DistinctValues(0), TrueDistinct(*rel, 0));
  }
}

TEST(RelationStatsTest, DistinctValuesExactAfterSortWindowPromotion) {
  auto dict = Dict();
  chase::Instance db(dict);
  for (int i = 0; i < 64; ++i) {
    // Unique second position: every AddFact stores a new tuple.
    db.AddFact("e", {"a" + std::to_string(i % 9), "b" + std::to_string(i)});
  }
  const chase::Relation* rel = db.Find("e");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->DistinctValues(0), 9u);  // syncs the permutation

  // Append a tail, sort exactly the tail window (the semi-naive delta
  // pattern) so SyncSorted can promote the memoized run by merging.
  uint32_t tail_begin = static_cast<uint32_t>(rel->size());
  for (int i = 0; i < 48; ++i) {
    db.AddFact("e", {"c" + std::to_string(i % 7), "b" + std::to_string(i)});
  }
  std::vector<uint32_t> window;
  rel->SortWindow(0, tail_begin, static_cast<uint32_t>(rel->size()),
                  &window);
  EXPECT_EQ(window.size(), 48u);
  EXPECT_EQ(rel->DistinctValues(0), TrueDistinct(*rel, 0));
  EXPECT_EQ(rel->DistinctValues(0), 16u);
}

TEST(RelationStatsTest, EstimatedDistinctWithinToleranceAndClamped) {
  auto dict = Dict();
  chase::Instance db(dict);
  // Small cardinality: the linear-counting regime is near exact.
  for (int i = 0; i < 200; ++i) {
    db.AddFact("small", {"v" + std::to_string(i % 12), "w"});
  }
  const chase::Relation* small = db.Find("small");
  ASSERT_NE(small, nullptr);
  EXPECT_GE(small->EstimatedDistinct(0), 6.0);
  EXPECT_LE(small->EstimatedDistinct(0), 24.0);
  // A constant column estimates ~1 and never clamps below 1.
  EXPECT_GE(small->EstimatedDistinct(1), 1.0);
  EXPECT_LE(small->EstimatedDistinct(1), 2.0);

  // Large cardinality: a 64-register HLL has ~13% standard error;
  // accept a generous 2x band, and the [1, size] clamp.
  for (int i = 0; i < 3000; ++i) {
    db.AddFact("big", {"u" + std::to_string(i), "w"});
  }
  const chase::Relation* big = db.Find("big");
  ASSERT_NE(big, nullptr);
  EXPECT_GE(big->EstimatedDistinct(0), 1500.0);
  EXPECT_LE(big->EstimatedDistinct(0), 3000.0);  // clamped at size()
}

TEST(RelationStatsTest, EstimatedDistinctIsInsertionOrderIndependent) {
  auto dict = Dict();
  std::vector<std::pair<std::string, std::string>> facts;
  std::mt19937 rng(9);
  for (int i = 0; i < 500; ++i) {
    facts.emplace_back("x" + std::to_string(rng() % 90),
                       "y" + std::to_string(rng() % 40));
  }
  chase::Instance fwd(dict), rev(dict);
  for (const auto& [a, b] : facts) fwd.AddFact("e", {a, b});
  std::reverse(facts.begin(), facts.end());
  for (const auto& [a, b] : facts) rev.AddFact("e", {a, b});
  // Same fact set, opposite insertion order: bit-identical estimates —
  // the planner property that keeps plans deterministic across
  // strategies and thread counts.
  for (uint32_t pos : {0u, 1u}) {
    EXPECT_EQ(fwd.Find("e")->EstimatedDistinct(pos),
              rev.Find("e")->EstimatedDistinct(pos));
  }
}

/// std::sort of the tuple indices [begin, end) under (column values at
/// key[0], key[1], ..., tuple index): the comparator every permutation
/// was sorted with before the radix kernel.
std::vector<uint32_t> ReferenceOrder(const chase::Relation& rel,
                                     const std::vector<uint32_t>& key,
                                     uint32_t begin, uint32_t end) {
  std::vector<uint32_t> out;
  for (uint32_t i = begin; i < end; ++i) out.push_back(i);
  std::sort(out.begin(), out.end(), [&](uint32_t a, uint32_t b) {
    for (uint32_t pos : key) {
      datalog::Term va = rel.tuple(a)[pos];
      datalog::Term vb = rel.tuple(b)[pos];
      if (va != vb) return va < vb;
    }
    return a < b;
  });
  return out;
}

/// Checks that `perm` is the (key values..., tuple index) order over
/// all stored tuples.
void ExpectLexOrder(const chase::Relation& rel,
                    const std::vector<uint32_t>& key,
                    const std::vector<uint32_t>& perm) {
  EXPECT_EQ(perm, ReferenceOrder(rel, key, 0,
                                 static_cast<uint32_t>(rel.size())));
}

TEST(RelationStatsTest, LexPermOrdersByKeyThenIndexAndExtends) {
  auto dict = Dict();
  chase::Instance db(dict);
  std::mt19937 rng(17);
  auto add = [&](int n) {
    for (int i = 0; i < n; ++i) {
      db.AddFact("e", {"p" + std::to_string(rng() % 6),
                       "q" + std::to_string(rng() % 11),
                       "r" + std::to_string(rng() % 3)});
    }
  };
  add(100);
  const chase::Relation* rel = db.Find("e");
  ASSERT_NE(rel, nullptr);
  std::vector<uint32_t> key = {1, 2};
  ExpectLexOrder(*rel, key, rel->LexPerm(key));
  // Incremental extension: the tail is sorted and merged, not rebuilt.
  add(60);
  ExpectLexOrder(*rel, key, rel->LexPerm(key));
  // A different key is an independent permutation.
  std::vector<uint32_t> key2 = {2, 0, 1};
  ExpectLexOrder(*rel, key2, rel->LexPerm(key2));
  // Single-position keys alias the sorted permutation: same order.
  std::vector<uint32_t> key1 = {1};
  ExpectLexOrder(*rel, key1, rel->LexPerm(key1));
}

// ---- permutation sort kernel ------------------------------------------
//
// Sorted, SortWindow and LexPerm must hold exactly the order std::sort
// gives under (key values..., tuple index) — on both sides of
// Relation::kRadixSortMinEntries, for duplicate-heavy columns and for
// labeled nulls, whose tag bits sit in the radix kernel's top digit.

using chase::Term;

std::vector<uint32_t> ToVector(chase::SortedRange range) {
  return std::vector<uint32_t>(range.begin(), range.end());
}

/// Value distributions for the three keyed positions.
enum class Values {
  kWide,        // 30-bit payloads: every radix digit varies
  kDuplicates,  // four values: long runs of equal keys
  kNulls,       // constants and labeled nulls mixed
};

Term Draw(Values kind, std::mt19937* rng) {
  switch (kind) {
    case Values::kWide:
      return Term::Constant((*rng)() & ((1u << 30) - 1));
    case Values::kDuplicates:
      return Term::Constant((*rng)() % 4);
    case Values::kNulls:
      return (*rng)() % 2 == 0 ? Term::Null((*rng)() % 3000)
                               : Term::Constant((*rng)() % 3000);
  }
  return Term();
}

/// Appends `n` tuples to a 4-ary relation: positions 0-2 drawn from
/// `kind`, position 3 a serial number, so every tuple is new.
void Append(chase::Relation* rel, Values kind, uint32_t n,
            std::mt19937* rng) {
  for (uint32_t i = 0; i < n; ++i) {
    chase::Tuple t = {Draw(kind, rng), Draw(kind, rng), Draw(kind, rng),
                      Term::Constant(static_cast<uint32_t>(rel->size()))};
    ASSERT_TRUE(rel->Insert(t));
  }
}

const std::vector<std::vector<uint32_t>> kLexKeys = {
    {1, 0}, {2, 1}, {1, 0, 2}, {2, 0, 1}};

TEST(SortKernelTest, MatchesComparisonSortAcrossTheCutoff) {
  constexpr uint32_t kCutoff = chase::Relation::kRadixSortMinEntries;
  for (Values kind : {Values::kWide, Values::kDuplicates, Values::kNulls}) {
    for (uint32_t n : {0u, 1u, kCutoff - 1, kCutoff, 100000u}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   ", n " + std::to_string(n));
      std::mt19937 rng(n + 31 * static_cast<uint32_t>(kind));
      // Windows first, on a relation no permutation is synced on yet:
      // a full-window SortWindow would otherwise answer from Sorted().
      chase::Relation rel(4);
      Append(&rel, kind, n, &rng);
      for (uint32_t pos = 0; pos < 3; ++pos) {
        std::vector<uint32_t> window;
        rel.SortWindow(pos, 0, n, &window);
        EXPECT_EQ(window, ReferenceOrder(rel, {pos}, 0, n));
        if (n > 0) {
          rel.SortWindow(pos, 1, n, &window);
          EXPECT_EQ(window, ReferenceOrder(rel, {pos}, 1, n));
        }
      }
      for (uint32_t pos = 0; pos < 3; ++pos) {
        EXPECT_EQ(ToVector(rel.Sorted(pos)), ReferenceOrder(rel, {pos}, 0, n));
      }
      for (const std::vector<uint32_t>& key : kLexKeys) {
        EXPECT_EQ(rel.LexPerm(key), ReferenceOrder(rel, key, 0, n));
      }
    }
  }
}

TEST(SortKernelTest, IncrementalSyncsEqualAFromScratchBuild) {
  constexpr uint32_t kCutoff = chase::Relation::kRadixSortMinEntries;
  // Tails below, at and above the cutoff, with a sync after each.
  const std::vector<uint32_t> chunks = {1,  5,           37,      kCutoff - 1,
                                        3,  kCutoff,     2,       900,
                                        64, 3 * kCutoff, kCutoff, 11};
  for (Values kind : {Values::kWide, Values::kDuplicates, Values::kNulls}) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
    std::mt19937 rng(5 + static_cast<uint32_t>(kind));
    chase::Relation grown(4);
    for (size_t c = 0; c < chunks.size(); ++c) {
      const uint32_t begin = static_cast<uint32_t>(grown.size());
      Append(&grown, kind, chunks[c], &rng);
      const uint32_t end = static_cast<uint32_t>(grown.size());
      // Every other chunk, position 0 goes through a memoized delta
      // window first, so its sync promotes the run instead of sorting.
      if (c % 2 == 0) {
        std::vector<uint32_t> window;
        grown.SortWindow(0, begin, end, &window);
        EXPECT_EQ(window, ReferenceOrder(grown, {0}, begin, end));
      }
      for (uint32_t pos = 0; pos < 3; ++pos) (void)grown.Sorted(pos);
      for (const std::vector<uint32_t>& key : kLexKeys) {
        (void)grown.LexPerm(key);
      }
    }
    chase::Relation scratch(4);
    for (chase::TupleView t : grown.tuples()) {
      ASSERT_TRUE(scratch.Insert(t));
    }
    const uint32_t n = static_cast<uint32_t>(grown.size());
    for (uint32_t pos = 0; pos < 3; ++pos) {
      EXPECT_EQ(ToVector(grown.Sorted(pos)), ToVector(scratch.Sorted(pos)));
      EXPECT_EQ(ToVector(grown.Sorted(pos)), ReferenceOrder(grown, {pos}, 0, n));
    }
    for (const std::vector<uint32_t>& key : kLexKeys) {
      EXPECT_EQ(grown.LexPerm(key), scratch.LexPerm(key));
      EXPECT_EQ(grown.LexPerm(key), ReferenceOrder(grown, key, 0, n));
    }
  }
}

TEST(SortKernelTest, PromotedWindowRunMergesIntoTheSortedOrder) {
  constexpr uint32_t kCutoff = chase::Relation::kRadixSortMinEntries;
  for (Values kind : {Values::kWide, Values::kDuplicates, Values::kNulls}) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
    std::mt19937 rng(77 + static_cast<uint32_t>(kind));
    chase::Relation rel(4);
    Append(&rel, kind, 3 * kCutoff, &rng);
    (void)rel.Sorted(1);
    const uint32_t synced = static_cast<uint32_t>(rel.size());
    Append(&rel, kind, 4 * kCutoff, &rng);
    const uint32_t count = static_cast<uint32_t>(rel.size());
    // The memoized window covers only the front of the tail: the sync
    // promotes it, sorts the rest, and merges three runs.
    const uint32_t window_end = synced + 2 * kCutoff + 7;
    const uint64_t before = chase::TuplesSortedOnThisThread();
    std::vector<uint32_t> window;
    rel.SortWindow(1, synced, window_end, &window);
    EXPECT_EQ(window, ReferenceOrder(rel, {1}, synced, window_end));
    EXPECT_EQ(ToVector(rel.Sorted(1)), ReferenceOrder(rel, {1}, 0, count));
    // The counted work: the window, the rest of the tail, the merge of
    // the two tail runs, then the merge with the synced prefix.
    EXPECT_EQ(chase::TuplesSortedOnThisThread() - before,
              uint64_t{window_end - synced} + (count - window_end) +
                  (count - synced) + count);
  }
}

// ---- frozen-index contract --------------------------------------------

TEST(FrozenContractTest, ScopeMarksThreadAndNests) {
  EXPECT_FALSE(chase::InParallelPass());
  {
    chase::ParallelPassScope outer(true);
    EXPECT_TRUE(chase::InParallelPass());
    {
      // Inactive scopes (serial MatchBody calls) leave the mark alone.
      chase::ParallelPassScope inactive(false);
      EXPECT_TRUE(chase::InParallelPass());
      chase::ParallelPassScope inner(true);
      EXPECT_TRUE(chase::InParallelPass());
    }
    EXPECT_TRUE(chase::InParallelPass());
  }
  EXPECT_FALSE(chase::InParallelPass());
}

TEST(FrozenContractTest, FrozenIndexesAreReadableInsideParallelPass) {
  chase::Relation rel(2);
  for (uint32_t i = 0; i < 50; ++i) {
    rel.Insert(chase::Tuple{chase::Term::Constant(i % 7),
                            chase::Term::Constant(i)});
  }
  std::vector<uint32_t> key = {0, 1};
  rel.FreezeIndexes();
  (void)rel.LexPerm(key);
  (void)rel.DistinctValues(0);  // warm the cache pre-freeze-style
  chase::ParallelPassScope scope(true);
  // Every frozen read path stays on the immutable early returns: no
  // TRIQ_DCHECK_FROZEN fires (a violation aborts a debug build here).
  EXPECT_EQ(rel.Sorted(0).size(), 50u);
  EXPECT_EQ(rel.Postings(0, chase::Term::Constant(3)).empty(), false);
  EXPECT_EQ(rel.LexPerm(key).size(), 50u);
  EXPECT_EQ(rel.DistinctValues(0), 7u);
  std::vector<uint32_t> window;
  rel.SortWindow(0, 0, 50, &window);  // full window: synced permutation
  EXPECT_EQ(window.size(), 50u);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)

using FrozenContractDeathTest = ::testing::Test;

TEST(FrozenContractDeathTest, UnfrozenSortTripsInsideParallelPass) {
  chase::Relation rel(1);
  rel.Insert(chase::Tuple{chase::Term::Constant(1)});
  chase::ParallelPassScope scope(true);
  EXPECT_DEATH((void)rel.Sorted(0), "frozen-index contract");
}

TEST(FrozenContractDeathTest, UnfrozenLexPermTripsInsideParallelPass) {
  chase::Relation rel(2);
  rel.Insert(chase::Tuple{chase::Term::Constant(1), chase::Term::Constant(2)});
  std::vector<uint32_t> key = {0, 1};
  chase::ParallelPassScope scope(true);
  EXPECT_DEATH((void)rel.LexPerm(key), "frozen-index contract");
}

TEST(FrozenContractDeathTest, PartialWindowMemoTripsInsideParallelPass) {
  chase::Relation rel(1);
  for (uint32_t i = 0; i < 8; ++i) {
    rel.Insert(chase::Tuple{chase::Term::Constant(i)});
  }
  rel.FreezeIndexes();
  chase::ParallelPassScope scope(true);
  std::vector<uint32_t> window;
  // A PARTIAL window misses the memo and would write it: contract trip.
  EXPECT_DEATH(rel.SortWindow(0, 2, 5, &window), "frozen-index contract");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace triq
