#ifndef SWS_RUNTIME_RUNTIME_STATS_H_
#define SWS_RUNTIME_RUNTIME_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sws::rt {

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket b counts samples in [2^b, 2^(b+1)) microseconds (bucket 0 also
/// absorbs sub-microsecond samples). Recording is a single relaxed
/// fetch_add — safe to call from every worker on every run.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t micros);

  /// A plain (non-atomic) copy for reporting.
  std::array<uint64_t, kBuckets> Counts() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// A point-in-time copy of the runtime counters, safe to read and print
/// while the runtime keeps running. Counters are monotonically increasing
/// except queue_depth (a gauge).
struct StatsSnapshot {
  uint64_t submitted = 0;          // Submit() calls that were admitted
  uint64_t rejected = 0;           // Submit() calls bounced by backpressure
  uint64_t completed = 0;          // messages fully processed by a worker
  uint64_t sessions_closed = 0;    // delimiter runs that committed
  uint64_t deadline_exceeded = 0;  // messages dropped past their deadline
  uint64_t budget_exceeded = 0;    // session runs aborted by max_nodes
  uint64_t injected_faults = 0;    // runs failed by the fault injector
  uint64_t circuit_open = 0;       // delimiters fast-failed by a breaker
  uint64_t retries = 0;            // extra run attempts by the retry loop
  uint64_t shed_low_priority = 0;  // low-priority shed before hard-full
  uint64_t expired_at_enqueue = 0; // dead on arrival; never admitted
  uint64_t memo_hits = 0;          // subtrees replayed from the memo cache
  uint64_t memo_misses = 0;        // subtrees evaluated and cached
  uint64_t storage_failures = 0;   // durable appends/snapshots that failed
  uint64_t journal_appends = 0;    // records appended to the WAL
  uint64_t snapshots = 0;          // shard snapshots captured
  uint64_t fuel_exhausted = 0;     // runs aborted by a fuel / byte budget
  uint64_t watchdog_cancels = 0;   // overrunning runs cancelled externally
  uint64_t degradations = 0;       // pressure-ladder level increases
  uint64_t memo_evictions = 0;     // memo entries evicted by the byte cap
  uint64_t index_evictions = 0;    // relation indexes evicted by the pool cap
  uint64_t tracked_bytes_hwm = 0;  // high-water mark of governed cache bytes
  uint64_t replication_acks = 0;   // ack barriers satisfied by the quorum
  uint64_t replication_timeouts = 0;  // ack barriers that timed out
  uint64_t promotions = 0;         // follower→primary promotions (this node)
  uint64_t segments_shipped = 0;   // journal segments streamed to followers
  uint64_t follower_lag_hwm = 0;   // high-water mark of unacked shipments
  uint64_t peer_suspicions = 0;    // silence episodes the watchdog reported
  uint64_t auto_promotions = 0;    // quorum-elected promotions (no operator)
  uint64_t epoch_fencing_rejects = 0;  // stale-epoch shipments refused
  uint64_t catchup_bytes_shipped = 0;  // snapshot bytes served to joiners
  uint64_t net_conns_accepted = 0;   // TCP connections accepted by the server
  uint64_t net_conns_reaped = 0;     // connections the server closed to
                                     // protect itself (idle, wedged writer,
                                     // accept overload)
  uint64_t net_frames_rejected = 0;  // malformed/oversize/corrupt wire frames
  uint64_t net_bytes_shed = 0;       // reply bytes dropped on closed/wedged
                                     // connections (backpressure)
  uint64_t net_writes = 0;           // socket write calls by the server
  uint64_t pressure_level = 0;     // current degradation level (gauge, 0-3)
  uint64_t queue_depth = 0;        // admitted but not yet completed
  /// Per-shard session-run latency histograms (delimiter runs only; the
  /// buffering of a non-delimiter message is not a run).
  std::vector<std::array<uint64_t, LatencyHistogram::kBuckets>> shard_latency;

  /// Total recorded runs and an approximate latency quantile (in
  /// microseconds, upper bucket bound) aggregated across shards.
  uint64_t total_runs() const;
  uint64_t ApproxLatencyMicros(double quantile) const;

  std::string ToString() const;
  /// One-line JSON object (for BENCH_*.json files and scraping). The
  /// output is guaranteed-valid JSON: keys go through full string
  /// escaping and every value is emitted as a plain integer.
  std::string ToJson() const;
};

/// The live counters. All mutators are single atomic ops with relaxed
/// ordering — the stats surface deliberately imposes no synchronization
/// on the data path; cross-thread visibility of the *work* itself is
/// ordered by the shard queues, not by these counters.
class RuntimeStats {
 public:
  explicit RuntimeStats(size_t num_shards);

  void OnSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void OnRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void OnCompleted() { completed_.fetch_add(1, std::memory_order_relaxed); }
  void OnSessionClosed() {
    sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnDeadlineExceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnBudgetExceeded() {
    budget_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnInjectedFault() {
    injected_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnCircuitOpen() {
    circuit_open_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnRetries(uint64_t n) {
    retries_.fetch_add(n, std::memory_order_relaxed);
  }
  void OnShedLowPriority() {
    shed_low_priority_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnExpiredAtEnqueue() {
    expired_at_enqueue_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Execution-tree memoization counters from one committed session run.
  void OnMemo(uint64_t hits, uint64_t misses) {
    if (hits > 0) memo_hits_.fetch_add(hits, std::memory_order_relaxed);
    if (misses > 0) memo_misses_.fetch_add(misses, std::memory_order_relaxed);
  }
  void OnStorageFailure() {
    storage_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnJournalAppends(uint64_t n) {
    if (n > 0) journal_appends_.fetch_add(n, std::memory_order_relaxed);
  }
  void OnSnapshot() { snapshots_.fetch_add(1, std::memory_order_relaxed); }
  void OnFuelExhausted() {
    fuel_exhausted_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnWatchdogCancel() {
    watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnDegradation() {
    degradations_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Cache-eviction counters from one session run (bounded caches).
  void OnEvictions(uint64_t memo, uint64_t index) {
    if (memo > 0) memo_evictions_.fetch_add(memo, std::memory_order_relaxed);
    if (index > 0) index_evictions_.fetch_add(index, std::memory_order_relaxed);
  }
  void OnReplicationAck() {
    replication_acks_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnReplicationTimeout() {
    replication_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Raises the governed-cache-bytes high-water mark (watchdog samples).
  void OnTrackedBytes(uint64_t bytes) {
    uint64_t prev = tracked_bytes_hwm_.load(std::memory_order_relaxed);
    while (prev < bytes && !tracked_bytes_hwm_.compare_exchange_weak(
                               prev, bytes, std::memory_order_relaxed)) {
    }
  }
  // Network front-door counters (net::RpcServer via stats_sink()).
  void OnNetConnAccepted() {
    net_conns_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnNetConnReaped() {
    net_conns_reaped_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnNetFramesRejected(uint64_t n) {
    if (n > 0) net_frames_rejected_.fetch_add(n, std::memory_order_relaxed);
  }
  void OnNetBytesShed(uint64_t n) {
    if (n > 0) net_bytes_shed_.fetch_add(n, std::memory_order_relaxed);
  }
  void OnNetWrite() { net_writes_.fetch_add(1, std::memory_order_relaxed); }

  void RecordRunLatency(size_t shard, uint64_t micros);

  /// The queue-depth and pressure-level gauges are owned by the admission
  /// layer and the watchdog respectively; the snapshot takes them as
  /// arguments.
  StatsSnapshot Snapshot(uint64_t queue_depth, uint64_t pressure_level = 0)
      const;

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> budget_exceeded_{0};
  std::atomic<uint64_t> injected_faults_{0};
  std::atomic<uint64_t> circuit_open_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> shed_low_priority_{0};
  std::atomic<uint64_t> expired_at_enqueue_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};
  std::atomic<uint64_t> storage_failures_{0};
  std::atomic<uint64_t> journal_appends_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> fuel_exhausted_{0};
  std::atomic<uint64_t> watchdog_cancels_{0};
  std::atomic<uint64_t> degradations_{0};
  std::atomic<uint64_t> memo_evictions_{0};
  std::atomic<uint64_t> index_evictions_{0};
  std::atomic<uint64_t> tracked_bytes_hwm_{0};
  std::atomic<uint64_t> replication_acks_{0};
  std::atomic<uint64_t> replication_timeouts_{0};
  std::atomic<uint64_t> net_conns_accepted_{0};
  std::atomic<uint64_t> net_conns_reaped_{0};
  std::atomic<uint64_t> net_frames_rejected_{0};
  std::atomic<uint64_t> net_bytes_shed_{0};
  std::atomic<uint64_t> net_writes_{0};
  std::vector<LatencyHistogram> shard_latency_;
};

}  // namespace sws::rt

#endif  // SWS_RUNTIME_RUNTIME_STATS_H_
