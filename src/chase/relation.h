#ifndef TRIQ_CHASE_RELATION_H_
#define TRIQ_CHASE_RELATION_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "datalog/term.h"

namespace triq::common {
class ThreadPool;
}  // namespace triq::common

namespace triq::chase {

using datalog::Term;
using datalog::TermHash;

/// A tuple of ground terms (constants and labeled nulls). Used as the
/// insertion/materialization type; stored facts live in the relation's
/// column-oriented storage and are read through TupleView.
using Tuple = std::vector<Term>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (Term x : t) {
      h ^= x.raw();
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// A non-owning view of one stored tuple. Storage is column-oriented, so
/// a stored tuple's terms are `stride` apart (one column stride between
/// consecutive positions); a materialized Tuple has stride 1. Views are
/// invalidated by the next insert into the owning relation.
class TupleView {
 public:
  TupleView() = default;
  TupleView(const Term* data, uint32_t size, uint32_t stride = 1)
      : data_(data), size_(size), stride_(stride) {}
  /* implicit */ TupleView(const Tuple& t)  // NOLINT
      : data_(t.data()), size_(static_cast<uint32_t>(t.size())) {}

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Term operator[](uint32_t i) const {
    return data_[static_cast<size_t>(i) * stride_];
  }

  /// Strided element iterator (terms by value).
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Term;
    using difference_type = std::ptrdiff_t;
    using pointer = const Term*;
    using reference = Term;

    Iterator(const Term* p, uint32_t stride) : p_(p), stride_(stride) {}
    Term operator*() const { return *p_; }
    Iterator& operator++() {
      p_ += stride_;
      return *this;
    }
    friend bool operator==(Iterator a, Iterator b) { return a.p_ == b.p_; }
    friend bool operator!=(Iterator a, Iterator b) { return a.p_ != b.p_; }

   private:
    const Term* p_;
    uint32_t stride_;
  };
  Iterator begin() const { return Iterator(data_, stride_); }
  Iterator end() const {
    return Iterator(data_ + static_cast<size_t>(size_) * stride_, stride_);
  }

  /// Materializes an owning copy (Atom construction, answer sets).
  Tuple ToTuple() const {
    Tuple out;
    out.reserve(size_);
    for (uint32_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

  friend bool operator==(TupleView a, TupleView b) {
    if (a.size_ != b.size_) return false;
    for (uint32_t i = 0; i < a.size_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TupleView a, TupleView b) { return !(a == b); }
  friend bool operator==(TupleView a, const Tuple& b) {
    return a == TupleView(b);
  }
  friend bool operator==(const Tuple& a, TupleView b) {
    return TupleView(a) == b;
  }

 private:
  const Term* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t stride_ = 1;
};

/// A contiguous read-only scan over one column (all values a position
/// takes, in tuple-index order). Invalidated by the next insert.
class ColumnScan {
 public:
  ColumnScan() = default;
  ColumnScan(const Term* data, size_t size) : data_(data), size_(size) {}

  const Term* begin() const { return data_; }
  const Term* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  Term operator[](size_t i) const { return data_[i]; }

 private:
  const Term* data_ = nullptr;
  size_t size_ = 0;
};

/// A value-ordered view over one position: a slice of the position's
/// sorted permutation index. Iterating yields tuple indices whose column
/// values are nondecreasing; within one value, tuple indices ascend (the
/// permutation's tiebreak), so an Equal() slice doubles as the old
/// "posting list" — a sorted list of tuple indices for one value.
/// Invalidated by the next insert into the owning relation.
class SortedRange {
 public:
  SortedRange() = default;
  SortedRange(const uint32_t* begin, const uint32_t* end, const Term* column)
      : begin_(begin), end_(end), column_(column) {}

  const uint32_t* begin() const { return begin_; }
  const uint32_t* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }

  /// Column value of the entry at `it` (must be in [begin, end)).
  Term ValueAt(const uint32_t* it) const { return column_[*it]; }

  /// First entry in [from, end) whose value is >= v. Gallops forward
  /// from `from`, so a monotone sequence of seeks costs O(n) total —
  /// the merge-join cursor primitive.
  const uint32_t* SeekValue(const uint32_t* from, Term v) const;

  /// The sub-range of entries whose value equals `v` (binary search).
  SortedRange Equal(Term v) const;

 private:
  const uint32_t* begin_ = nullptr;
  const uint32_t* end_ = nullptr;
  const Term* column_ = nullptr;
};

// ---- frozen-index contract (debug-mode checked) -----------------------
//
// The parallel chase relies on a convention: every lazily built index a
// sharded pass can touch (sorted permutations, lex permutations, window
// memos, distinct-count caches) must be frozen — built via FreezeIndex /
// FreezeLex — BEFORE fan-out, so worker threads only ever hit the
// immutable early-return paths. ParallelPassScope marks the calling
// thread as being inside such a sharded slice (MatchBody enters it when
// the caller injects a driver_order shard), and the index builders
// assert via TRIQ_DCHECK_FROZEN that no mutable build runs while the
// mark is set. The checks compile away under NDEBUG.

/// RAII marker: while alive (and constructed with active = true), the
/// calling thread is inside a sharded parallel match. Nests.
class ParallelPassScope {
 public:
  explicit ParallelPassScope(bool active);
  ~ParallelPassScope();
  ParallelPassScope(const ParallelPassScope&) = delete;
  ParallelPassScope& operator=(const ParallelPassScope&) = delete;

 private:
  bool active_;
};

/// True while the calling thread is inside an active ParallelPassScope.
bool InParallelPass();

/// Asserts the frozen-index contract at an index-mutation site: building
/// `what` during a sharded parallel pass means FreezeIndex/FreezeLex was
/// skipped for a (relation, position) the join plan probes — a data race
/// in release builds. No-op under NDEBUG.
#ifndef NDEBUG
#define TRIQ_DCHECK_FROZEN(what)                                        \
  assert(!::triq::chase::InParallelPass() &&                            \
         "frozen-index contract violated: " what                        \
         " built during a sharded parallel pass (freeze before fan-out)")
#else
#define TRIQ_DCHECK_FROZEN(what) ((void)0)
#endif

/// The extension of one predicate: an append-only, duplicate-free fact
/// store in column-oriented layout (VLog-style) — one contiguous column
/// of Terms per position, all columns packed capacity-strided into a
/// single buffer. Duplicates are rejected with an open-addressing table
/// over the columns, hash-partitioned into kDedupPartitions independent
/// sub-tables (the high hash bits pick the sub-table, so the partition
/// of a tuple is a pure function of its content — BatchInserter exploits
/// this to run dedup probes concurrently with a deterministic result).
/// Each position can expose a sorted permutation index
/// (tuple indices ordered by column value, tuple-index tiebreak), built
/// lazily on first sorted access and extended incrementally by sorting
/// the insertion tail and merging — scans, merge joins and posting-list
/// probes all read these permutations. Append-only storage keeps the
/// chase's delta tracking cheap: the facts added since a snapshot are
/// exactly the tuple-index suffix starting at the snapshot size.
class Relation {
 public:
  /// Dedup sub-table count. Fixed (never a function of the thread
  /// count): batch-commit results must not depend on parallelism.
  static constexpr uint32_t kDedupPartitionBits = 4;
  static constexpr uint32_t kDedupPartitions = 1u << kDedupPartitionBits;

  explicit Relation(uint32_t arity)
      : arity_(arity),
        part_counts_(kDedupPartitions, 0),
        sorted_(arity),
        sketches_(arity) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return count_; }

  /// The 32-bit tuple hash the dedup table keys on (FNV-1a over raw
  /// term bits), exposed so staging layers can precompute it off the
  /// commit thread. Equals the hash of a stored tuple with equal terms.
  static uint32_t Hash32(const Term* terms, uint32_t n) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t i = 0; i < n; ++i) {
      h ^= terms[i].raw();
      h *= 0x100000001b3ULL;
    }
    return static_cast<uint32_t>(h ^ (h >> 32));
  }

  /// Pre-sizes columns and the dedup table for `n` tuples (bulk loads).
  void Reserve(uint32_t n);

  TupleView tuple(size_t i) const {
    return TupleView(store_.data() + i, arity_, capacity_);
  }

  /// The stored values of one position, in tuple-index order.
  ColumnScan Column(uint32_t pos) const {
    return ColumnScan(ColumnData(pos), count_);
  }

  /// Iteration over all stored tuples as views. Index-based so 0-ary
  /// relations still yield their single empty tuple.
  class TupleIterator {
   public:
    TupleIterator(const Relation* rel, uint32_t index)
        : rel_(rel), index_(index) {}
    TupleView operator*() const { return rel_->tuple(index_); }
    TupleIterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(TupleIterator a, TupleIterator b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(TupleIterator a, TupleIterator b) {
      return a.index_ != b.index_;
    }

   private:
    const Relation* rel_;
    uint32_t index_;
  };
  class TupleRange {
   public:
    TupleRange(const Relation* rel) : rel_(rel) {}
    TupleIterator begin() const { return TupleIterator(rel_, 0); }
    TupleIterator end() const { return TupleIterator(rel_, rel_->count_); }

   private:
    const Relation* rel_;
  };
  TupleRange tuples() const { return TupleRange(this); }

  /// Inserts `t`; returns true (and the new index via `index_out`) if the
  /// tuple is new, false if it was already present.
  bool Insert(TupleView t, uint32_t* index_out = nullptr);
  bool Insert(const Tuple& t, uint32_t* index_out = nullptr) {
    return Insert(TupleView(t), index_out);
  }

  bool Contains(TupleView t) const { return FindIndex(t) != kNotFound; }
  bool Contains(const Tuple& t) const { return Contains(TupleView(t)); }

  /// Index of the stored tuple equal to `t`, or kNotFound.
  static constexpr uint32_t kNotFound = UINT32_MAX;
  uint32_t FindIndex(TupleView t) const;

  /// The whole sorted permutation of `position`: every stored tuple
  /// index, ordered by (column value, tuple index). Syncs the index with
  /// the insertion tail first, so the call is amortized; the returned
  /// view is valid until the next insert.
  SortedRange Sorted(uint32_t position) const;

  /// Syncs `position`'s sorted permutation with the insertion tail.
  /// After a freeze — and until the next insert — the read paths over
  /// that position (Sorted/Postings and the SortedRange views they
  /// return), plus the always-safe tuple/Column/FindIndex/Contains, are
  /// safe under concurrent readers: a frozen Sorted finds nothing left
  /// to sync, so no mutable state is touched. The parallel chase
  /// freezes exactly the (relation, position) pairs a pass's join plan
  /// can probe (DriverPlan::probe_index_pairs) before fan-out.
  /// SortWindow joins the frozen read set only for the full window
  /// [0, size()) (it answers from the synced permutation); partial
  /// windows still memoize, so concurrent matchers receive pre-built
  /// partial windows instead of sorting their own.
  void FreezeIndex(uint32_t position) const { SyncSorted(position); }

  /// FreezeIndex over every position.
  void FreezeIndexes() const;

  /// Tuple indices (ascending) whose `position`-th term equals `value` —
  /// the Equal() slice of Sorted(position). Empty range when no fact
  /// matches.
  SortedRange Postings(uint32_t position, Term value) const;

  /// Writes the permutation of the tuple-index window [begin, end) into
  /// `out`, ordered by (column value at `position`, tuple index). This is
  /// the delta-window counterpart of Sorted(): semi-naive passes sort
  /// just their delta slice instead of touching the global index.
  ///
  /// The last window per position is memoized: a round where several
  /// rules drive off the same delta slice sorts it once, and SyncSorted
  /// promotes a memoized run that lines up with the unsynced tail into
  /// the base permutation by merging instead of re-sorting it.
  void SortWindow(uint32_t position, uint32_t begin, uint32_t end,
                  std::vector<uint32_t>* out) const;

  /// Estimated number of distinct values in `position`'s column — an
  /// O(1) read off a small per-position HyperLogLog sketch maintained on
  /// every append. The sketch is order-independent: relations holding
  /// the same fact set report the same estimate regardless of insertion
  /// order or thread count, so planner decisions built on it are
  /// deterministic across join strategies and parallel schedules. Never
  /// syncs a permutation index (estimating must not perturb what it
  /// plans). Clamped to [1, size()] for a non-empty relation.
  double EstimatedDistinct(uint32_t position) const;

  /// Exact distinct-value count of `position`'s column: syncs the sorted
  /// permutation and counts value transitions, cached until the next
  /// insert. The explain surface and tests read this; the planner reads
  /// EstimatedDistinct instead to stay off the index-sync path.
  size_t DistinctValues(uint32_t position) const;

  /// The lexicographic permutation of all stored tuple indices ordered
  /// by the column values at key[0], then key[1], ..., with tuple index
  /// as the final tiebreak — the trie a leapfrog join walks level by
  /// level (each level's slice is a SortedRange over the next key
  /// position). Built lazily and extended incrementally like Sorted():
  /// the insertion tail is sorted and merged with the synced prefix. A
  /// single-position key aliases Sorted(key[0]) — same order, no second
  /// index. The returned reference is valid until the next insert.
  /// Thread-safe on a relation that no longer grows (a published
  /// snapshot): concurrent callers share one build per key.
  const std::vector<uint32_t>& LexPerm(const std::vector<uint32_t>& key) const;

  /// Syncs the lex permutation for `key` so concurrent matchers can read
  /// it without touching mutable state — the multi-position counterpart
  /// of FreezeIndex, driven by DriverPlan::lex_index_pairs before
  /// parallel fan-out.
  void FreezeLex(const std::vector<uint32_t>& key) const { LexPerm(key); }

 private:
  friend class BatchInserter;

  const Term* ColumnData(uint32_t pos) const {
    return store_.data() + static_cast<size_t>(pos) * capacity_;
  }
  Term* MutableColumnData(uint32_t pos) {
    return store_.data() + static_cast<size_t>(pos) * capacity_;
  }
  Term Value(uint32_t pos, uint32_t idx) const {
    return store_[static_cast<size_t>(pos) * capacity_ + idx];
  }
  uint32_t HashView(TupleView t) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t i = 0; i < arity_; ++i) {
      h ^= t[i].raw();
      h *= 0x100000001b3ULL;
    }
    return static_cast<uint32_t>(h ^ (h >> 32));
  }
  /// Sub-table geometry: slots_ holds kDedupPartitions contiguous
  /// regions of sub_size() slots each; a hash probes only its region.
  uint32_t sub_size() const {
    return static_cast<uint32_t>(slots_.size()) >> kDedupPartitionBits;
  }
  static uint32_t PartitionOf(uint32_t h) {
    // Fibonacci-mix before taking the top bits: the FNV fold leaves
    // almost no entropy in the high bits for small term ids (structured
    // workloads would land 80%+ of their tuples in one partition).
    return (h * 0x9e3779b9u) >> (32 - kDedupPartitionBits);
  }
  bool EqualsStored(uint32_t idx, TupleView t) const {
    for (uint32_t pos = 0; pos < arity_; ++pos) {
      if (Value(pos, idx) != t[pos]) return false;
    }
    return true;
  }
  /// Rebuilds the dedup table at the next power-of-two sub-table size.
  /// With a pool, the re-probe runs partition-parallel: tuple indices
  /// are bucketed by partition first (ascending order preserved), then
  /// each partition fills its own disjoint slot region — the resulting
  /// layout is bit-identical to the sequential rebuild.
  void GrowSlots(common::ThreadPool* pool = nullptr);
  void GrowStore(uint32_t needed);
  /// Feeds one appended tuple's terms into the per-position sketches.
  void NoteAppend(TupleView t) {
    for (uint32_t pos = 0; pos < arity_; ++pos) {
      sketches_[pos].Add(MixTerm(t[pos].raw()));
    }
  }
  static uint64_t MixTerm(uint64_t x) {
    // splitmix64 finalizer: the sketch needs well-mixed high bits, and
    // raw term ids are small sequential integers.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  /// Extends sorted_[pos].perm to cover all count_ tuples (sort the new
  /// tail, merge with the sorted prefix).
  void SyncSorted(uint32_t pos) const;

  uint32_t arity_;
  uint32_t count_ = 0;     // number of stored tuples
  uint32_t capacity_ = 0;  // column stride in store_
  // arity_ * capacity_ terms; column `pos` occupies
  // [pos * capacity_, pos * capacity_ + count_).
  std::vector<Term> store_;
  // Open addressing, hash-partitioned (see sub_size): tuple index + 1,
  // 0 empty. BatchInserter temporarily stores tagged staged positions.
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> part_counts_;  // occupied slots per partition
  // Stored tuple hashes: rehashing and probe pre-filtering read these
  // instead of gathering every tuple across the columns.
  std::vector<uint32_t> hashes_;
  // Per-position sorted permutation; perm.size() tuples are synced.
  // window_perm memoizes the last SortWindow result for the position
  // ([window_begin, window_end) in value order); append-only storage
  // keeps a memoized run valid forever, so it needs no invalidation.
  struct PositionIndex {
    std::vector<uint32_t> perm;
    std::vector<uint32_t> window_perm;
    uint32_t window_begin = 0;
    uint32_t window_end = 0;
    // Exact distinct count over the first `distinct_at` tuples;
    // distinct_at != count_ means stale (invalidated by insert).
    uint32_t distinct = 0;
    uint32_t distinct_at = UINT32_MAX;
  };
  mutable std::vector<PositionIndex> sorted_;
  // One HyperLogLog sketch per position (64 registers — coarse, but the
  // planner only needs the right order of magnitude, and 64 bytes per
  // column keeps the per-append cost to one mix + one max).
  struct DistinctSketch {
    std::array<uint8_t, 64> reg{};
    void Add(uint64_t h) {
      uint32_t r = static_cast<uint32_t>(h >> 58);  // top 6 bits
      uint64_t w = h << 6;
      uint8_t rank = 1;
      if (w == 0) {
        rank = 59;
      } else {
        while ((w & (1ULL << 63)) == 0) {
          w <<= 1;
          ++rank;
        }
      }
      if (rank > reg[r]) reg[r] = rank;
    }
    double Estimate() const;
  };
  std::vector<DistinctSketch> sketches_;
  // Multi-position lex permutations, keyed by position sequence; built
  // and extended lazily (FreezeLex pre-builds before parallel fan-out;
  // std::map so extending one key never moves another's storage). The
  // find-or-build runs under the memo's lock: concurrent query chases
  // over one published snapshot may each build a key nobody froze.
  // References handed out stay valid because a snapshot never grows and
  // std::map never moves other keys. Copies and moves carry the map
  // only, so Relation stays copyable (Instance::CloneFacts) and movable.
  struct LexMemo {
    LexMemo() = default;
    LexMemo(const LexMemo& other) {
      MutexLock lock(other.mu);
      perms = other.perms;
    }
    LexMemo(LexMemo&& other) noexcept {
      MutexLock lock(other.mu);
      perms = std::move(other.perms);
    }
    mutable Mutex mu;
    std::map<std::vector<uint32_t>, std::vector<uint32_t>> perms
        TRIQ_GUARDED_BY(mu);
  };
  mutable LexMemo lex_;
  Tuple insert_scratch_;  // gather buffer: Insert sources may alias store_
};

/// Deterministic parallel commit of one staged tuple stream into a
/// Relation — the merge-commit half of the parallel chase. The stream
/// (shards appended in commit order; each shard is stride-1 tuple rows
/// plus their Hash32 values) is deduplicated and appended EXACTLY as if
/// each tuple had been Insert()ed in stream order: same winners, same
/// tuple indexes — but the dedup probes, the only memory-latency-bound
/// part, run concurrently across the relation's hash partitions.
///
/// Protocol (phases must not overlap; scan/finalize calls of distinct
/// partitions may run concurrently):
///
///   BatchInserter batch(&rel);
///   batch.AddShard(tuples, hashes, n);        // once per shard, in order
///   batch.Prepare();                          // serial: size store+table
///   for p in [0, Relation::kDedupPartitions): // parallel
///     batch.ScanPartition(p);
///   size_t winners = batch.CommitWinners();   // serial: ordered append
///   for p in [0, Relation::kDedupPartitions): // parallel
///     batch.FinalizeSlots(p);
///
/// A tuple's partition is a pure function of its content, so the winner
/// set and their order never depend on how partitions map to threads.
/// The relation must not be read or written by others between Prepare()
/// and the last FinalizeSlots() (the table holds tagged entries).
class BatchInserter {
 public:
  explicit BatchInserter(Relation* rel) : rel_(rel) {}

  /// Appends `n` staged tuples (rel->arity() terms each, stride 1, back
  /// to back) with their Hash32 values. Must precede Prepare().
  void AddShard(const Term* tuples, const uint32_t* hashes, uint32_t n);

  /// Staged tuples so far across shards.
  size_t total() const { return total_; }

  /// With a pool, a dedup-table doubling triggered by the staged volume
  /// rebuilds partition-parallel (same layout as the serial rebuild).
  void Prepare(common::ThreadPool* pool = nullptr);
  void ScanPartition(uint32_t partition);
  /// Appends the winners in stream order; returns how many were new.
  uint32_t CommitWinners();
  void FinalizeSlots(uint32_t partition);

 private:
  // Tags a slot whose entry is a staged stream position (winner whose
  // final tuple index is not assigned yet) rather than idx + 1.
  static constexpr uint32_t kStagedTag = 0x80000000u;

  struct Shard {
    const Term* tuples;
    const uint32_t* hashes;
    uint32_t n;
    uint32_t pos_base;  // stream position of the shard's first tuple
  };
  struct Winner {
    uint32_t pos;    // stream position
    uint32_t slot;   // index into rel_->slots_
    uint32_t hash;   // Hash32 of the tuple (copied from the shard)
    uint32_t index;  // final tuple index (assigned by CommitWinners)
  };

  const Term* TupleAt(uint32_t pos) const {
    // Shard counts are small (a few dozen); linear scan beats a binary
    // search on branch-predictability. CommitWinners' hot loop uses a
    // monotone cursor instead of this.
    for (const Shard& s : shards_) {
      if (pos - s.pos_base < s.n) {
        return s.tuples + static_cast<size_t>(pos - s.pos_base) * rel_->arity();
      }
    }
    return nullptr;
  }

  Relation* rel_;
  std::vector<Shard> shards_;
  uint32_t total_ = 0;
  // Per-partition winners (ascending stream position). CommitWinners
  // merges them into stream order, assigns indexes, and rebuckets them
  // by SLOT partition so each FinalizeSlots call walks only its own.
  std::vector<std::vector<Winner>> winners_{Relation::kDedupPartitions};
  std::vector<Winner> merged_;
};

}  // namespace triq::chase

#endif  // TRIQ_CHASE_RELATION_H_
