// The serve layer's RCU-style snapshot machinery.
//
// A WorldSnapshot is everything the daemon needs to answer queries about
// one version of the world: the loaded corpus, the reproduced series,
// the analyzed trend report, and the precomputed report CSV — all
// immutable once built. Queries read a snapshot; they never mutate one.
//
// SnapshotHub is the publication point. It holds the current snapshot
// behind a single atomic pointer and retires superseded snapshots with
// hazard pointers, so the reader path is wait-free and lock-free:
//
//   reader:    p = current; hazard[slot] = p; recheck current == p;
//              ... use *p ...; hazard[slot] = null
//   publisher: old = current.exchange(next);
//              spin until no hazard slot holds old; delete old
//
// Why not std::atomic<std::shared_ptr>? libstdc++ implements it with a
// spinlock pool, which would put a lock on the query path — the serve
// contract is zero reader locks. The hazard-pointer scheme above uses
// only seq_cst atomic loads and stores on the reader side.
//
// Soundness sketch (all operations seq_cst, so there is one total order
// S over them):
//   - A reader's pin is valid because the recheck succeeded: its hazard
//     store precedes the successful recheck load in S, and the recheck
//     read `p` from current, so any publisher that later removes `p`
//     from current performs its exchange after the recheck in S — and
//     therefore scans the hazard slots after the reader's hazard store,
//     sees `p`, and waits.
//   - Retirement is safe because the publisher only frees `old` after
//     reading every slot != old; reading the reader's slot-clearing
//     store synchronizes-with it, ordering all of the reader's accesses
//     to *old before the delete.
//   - ABA on slot contents is benign: the publisher waits for slots
//     that equal `old` specifically, and a slot can only (re)acquire
//     `old` while `old` is still reachable via current — impossible
//     after the exchange.
//
// Registration: each server worker thread owns one SnapshotReader for
// its lifetime (a claimed hazard slot). The slot table is fixed-size;
// Register fails when more than kMaxReaders threads try to read, which
// the server sizes against its worker count.

#ifndef MICTREND_SERVE_SNAPSHOT_H_
#define MICTREND_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "medmodel/timeseries.h"
#include "mic/dataset.h"
#include "trend/pipeline.h"
#include "trend/trend_analyzer.h"

namespace mic::store {
class ClaimStore;
}  // namespace mic::store

namespace mic::serve {

/// One immutable, fully analyzed version of the world. Built off the
/// query path (at startup and on ingest), then published wholesale.
struct WorldSnapshot {
  /// Publish sequence number, 1-based. Version v serves a world with
  /// `base_months + (v - 1)` months when every ingest appends one month
  /// — the consistency invariant the hammer test asserts.
  std::uint64_t version = 0;
  /// Months in this snapshot's corpus.
  std::size_t months = 0;
  /// ClaimStore::Fingerprint() of the store this world was loaded from.
  std::uint64_t store_fingerprint = 0;

  MicCorpus corpus;
  medmodel::SeriesSet series;
  trend::TrendReport report;
  /// The analyzer that produced `report` (carries the options used, for
  /// cause classification at query time).
  trend::TrendAnalyzer analyzer;

  /// The full report serialized by trend::WriteReportCsv at build time
  /// — byte-identical to the offline `mictrend pipeline --out` artifact
  /// for the same store and config, so serving it is a string copy.
  std::string report_csv;

  /// Precomputed drill-down trees, one per axis, indexed by
  /// static_cast<int>(trend::DrillAxis). Built through the same cache
  /// as the report, so warm rebuilds answer the aggregates from the
  /// "drill" namespace instead of refitting.
  std::vector<trend::DrillDownReport> drilldowns;
};

class SnapshotHub;

/// A claimed hazard slot. One per reader thread, held for the thread's
/// lifetime. Movable, not copyable.
class SnapshotReader {
 public:
  SnapshotReader() = default;
  SnapshotReader(SnapshotReader&& other) noexcept;
  SnapshotReader& operator=(SnapshotReader&& other) noexcept;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;
  ~SnapshotReader();

  bool registered() const { return hub_ != nullptr; }

 private:
  friend class SnapshotHub;
  SnapshotReader(SnapshotHub* hub, int slot) : hub_(hub), slot_(slot) {}

  SnapshotHub* hub_ = nullptr;
  int slot_ = -1;
};

/// A pinned snapshot: dereferenceable until destruction, which clears
/// the hazard slot. Scope it tightly — a long-lived pin stalls the next
/// publish. Not movable: it marks a critical section, not a value.
class SnapshotPin {
 public:
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;
  ~SnapshotPin();

  const WorldSnapshot& operator*() const { return *snapshot_; }
  const WorldSnapshot* operator->() const { return snapshot_; }
  const WorldSnapshot* get() const { return snapshot_; }

 private:
  friend class SnapshotHub;
  SnapshotPin(SnapshotHub* hub, int slot, const WorldSnapshot* snapshot)
      : hub_(hub), slot_(slot), snapshot_(snapshot) {}

  SnapshotHub* hub_;
  int slot_;
  const WorldSnapshot* snapshot_;
};

/// Holds the current snapshot and coordinates lock-free readers with
/// the (serialized) publisher. See the file comment for the protocol.
class SnapshotHub {
 public:
  static constexpr int kMaxReaders = 64;

  SnapshotHub() = default;
  SnapshotHub(const SnapshotHub&) = delete;
  SnapshotHub& operator=(const SnapshotHub&) = delete;
  /// Deletes the current snapshot. All readers must be gone.
  ~SnapshotHub();

  /// Claims a hazard slot for the calling thread. FailedPrecondition
  /// when all kMaxReaders slots are taken.
  Result<SnapshotReader> Register();

  /// Pins the current snapshot for reading. Lock-free and wait-free on
  /// the reader side (the retry loop only iterates when a publish
  /// landed between the load and the recheck, which is bounded by the
  /// publish rate, not by other readers). `reader` must be registered
  /// and must not already hold a pin.
  SnapshotPin Acquire(const SnapshotReader& reader);

  /// Publishes `next` (ownership transfers to the hub), waits for every
  /// reader still pinning the previous snapshot to drain, deletes it,
  /// and returns the drain wait in seconds (0.0 for the first publish).
  /// Callers serialize publishes (the service's ingest mutex).
  double Publish(const WorldSnapshot* next);

  /// The current snapshot without pinning. Only safe where publication
  /// is excluded — e.g. on the publisher thread itself under the ingest
  /// mutex. Null before the first Publish.
  const WorldSnapshot* UnsafeCurrent() const {
    return current_.load(std::memory_order_seq_cst);
  }

 private:
  friend class SnapshotReader;
  friend class SnapshotPin;

  struct alignas(64) HazardSlot {
    std::atomic<const WorldSnapshot*> pointer{nullptr};
    std::atomic<bool> claimed{false};
  };

  void Unregister(int slot);
  void ClearPin(int slot);

  std::atomic<const WorldSnapshot*> current_{nullptr};
  HazardSlot slots_[kMaxReaders];
};

/// Builds a fully analyzed snapshot (version `version`) from the world
/// currently held by `store`: loads the corpus, runs the trend pipeline
/// with `config` under `context` (context.cache drives warm starts),
/// and precomputes the report CSV. Runs off the query path.
Result<const WorldSnapshot*> BuildSnapshot(std::uint64_t version,
                                           const store::ClaimStore& store,
                                           const trend::PipelineConfig& config,
                                           const ExecContext& context);

}  // namespace mic::serve

#endif  // MICTREND_SERVE_SNAPSHOT_H_
