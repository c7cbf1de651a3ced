// Shared declarations of the session-commit benchmark: workloads and
// their output oracle, the serving stack under test, the wire-level load
// generator, the span tracer and the reporting helpers.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/peer.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "replication/node.h"
#include "replication/replica_group.h"
#include "runtime/runtime.h"
#include "sws/sws.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).

enum class Kind { kTravel, kPeer, kPeerDurable, kReplicatedLogger };

// One generated session shape: the request messages followed by the '#'
// delimiter, and the oracle's output for it — core::Run of the service
// on the seed database. Sessions of a run draw from a seeded pool of
// these; the oracle holds on reused ids too (see SessionSource).
struct SessionInput {
  std::vector<sws::rel::Relation> messages;  // requests, then '#'
  sws::rel::Relation expected;
};

struct Workload {
  Kind kind = Kind::kTravel;
  std::string name;
  std::unique_ptr<sws::core::Sws> sws;
  std::unique_ptr<sws::models::Peer> peer;  // peer workloads only
  sws::rel::Database seed_db;
  size_t message_arity = 0;
  bool durable = false;
  bool replicated = false;
  // Open-loop offered rate, sessions/s: at most half the lowest closed-loop
  // capacity measured on the current code with this stack on a shared 4-CPU
  // host, whose speed varied two- to sevenfold for minutes at a time; a
  // rate set from a fast spell overloaded the stack in a slow one.
  double open_rate = 0;
  // Count-based warm-up before any timed phase, sized from the set-up
  // log's warm-up latencies: several times as many sessions as the
  // first-iteration effect lasts.
  size_t warmup_sessions = 0;
  // Untraced runs set up this many times and report the median set-up
  // time: more rounds where one round is short.
  int setup_rounds = 7;
  std::vector<SessionInput> pool;
};

// Parses a workload name; returns false for an unknown one.
bool ParseKind(const std::string& name, Kind* out);

// Builds the service and seed database, generates the seeded session
// pool and runs the oracle over it.
std::unique_ptr<Workload> MakeWorkload(Kind kind, uint64_t seed);

// Hands out session ids and seeded pool draws (shuffled passes over the
// pool, so every entry recurs equally often).
//
// Ids model clients, each running consecutive sessions on its id — the
// paper's input stream cut into sessions by '#'. An id is reused only once
// its previous session's outcome has arrived (Release), first-in
// first-out, so no two sessions of one id overlap, and a new id is minted
// only when every id has a session in flight. The population is therefore
// not chosen: it is the most sessions the phases drawing from the source
// ever hold in flight (population(), printed with each run) — four in the
// closed loop, a few more in the open loop. The services' outputs are not
// update actions on the seed database (travel, peer) or do not read it
// (logger), so the oracle's output on the seed database holds for every
// session of a reused id.
//
// For the replicated workload only ids whose primary is n0 (the node
// behind the front door) are issued. Thread-safe.
class SessionSource {
 public:
  SessionSource(const Workload* workload, uint64_t seed, std::string prefix);

  struct Draw {
    std::string id;
    const SessionInput* input = nullptr;
    size_t pool_index = 0;
  };
  Draw Next();
  // The id's session has its outcome; the id may start its next session.
  void Release(const std::string& id);
  // Ids minted so far.
  size_t population();

 private:
  const Workload* workload_;
  std::string prefix_;
  std::unique_ptr<sws::replication::ReplicaGroup> group_;
  std::mutex mu_;
  std::mt19937_64 rng_;
  uint64_t counter_ = 0;  // candidate ids tried
  size_t minted_ = 0;
  std::deque<std::string> idle_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Serving stack (stack.cc): the front door over the workload's runtime —
// a standalone ServiceRuntime, or three replicated nodes over loopback
// sockets with the front door on n0.

constexpr size_t kServerWorkers = 2;
constexpr size_t kServerShards = 8;

sws::rt::RuntimeOptions BaseRuntimeOptions(const Workload& workload,
                                           const std::string& durable_dir);

class Stack {
 public:
  Stack(const Workload* workload, std::string scratch_dir);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  sws::core::Status Start();
  // Stops the front door, then the runtime or the nodes, cleanly.
  void Stop();

  uint16_t port() const { return server_ ? server_->port() : 0; }
  // The runtime behind the front door (n0's for the replicated stack).
  std::shared_ptr<sws::rt::ServiceRuntime> runtime() const;
  // Durable directories: the serving runtime's first, then followers'.
  std::vector<std::string> durable_dirs() const;

 private:
  const Workload* workload_;
  std::string scratch_dir_;
  std::unique_ptr<sws::rt::ServiceRuntime> runtime_;
  std::unique_ptr<sws::replication::ReplicaGroup> group_;
  std::unique_ptr<sws::net::SocketTransport> transport_;
  std::vector<std::unique_ptr<sws::replication::ReplicatedNode>> nodes_;
  std::unique_ptr<sws::net::RpcServer> server_;
  bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Tracing (report.cc). Spans come only from the benchmark's own code,
// around calls into the library's public functions.

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string session;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Records a finished span and returns its id (0 when disabled).
  uint64_t Record(std::string name, uint64_t parent, const std::string& session,
                  Clock::time_point start, Clock::time_point end);
  // Reserves an id for a span whose children finish before it does.
  uint64_t Reserve();
  void RecordWithId(uint64_t id, std::string name, uint64_t parent,
                    const std::string& session, Clock::time_point start,
                    Clock::time_point end);
  size_t size() const;
  // Per span name: self time (duration minus the part covered by child
  // spans) of every span with that name, in microseconds.
  std::map<std::string, std::vector<double>> SelfTimes() const;
  // Writes one JSON object per span (times relative to the first span).
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Load generator (loadgen.cc): one thread multiplexing up to four
// loopback connections through the public wire API.

enum class Fate : uint8_t { kOk, kRefused, kErrored, kTimedOut, kWrong };

// A session without its outcome this long after its start (and any still
// pending this long after a phase stops starting sessions) timed out.
constexpr double kSessionTimeoutS = 10;

// Per-session record; its client id is tallied in PhaseResult, not kept.
struct SessionRecord {
  size_t pool_index = 0;
  Fate fate = Fate::kOk;
  bool planted = false;   // checked against an overriding expectation
  double start_s = 0;     // due (open) or send (closed) time, phase-relative
  double latency_us = 0;  // from start to the verified outcome
  double lag_us = 0;      // how late the first frame went out
};

// One client id's acknowledged sessions.
struct AckedSession {
  std::string id;
  size_t inputs = 0;    // messages of all its sessions, delimiters included
  size_t sessions = 0;
};

struct PhaseResult {
  // Per-session records, in completion order. A time-bound closed loop
  // keeps none: their number grows with the stack's speed, and so would
  // the process's peak memory, which is a metric.
  std::vector<SessionRecord> sessions;
  size_t attempted = 0;
  size_t fates[5] = {0, 0, 0, 0, 0};  // by Fate
  std::map<std::string, AckedSession> acked;    // by id, completed sessions
  std::map<std::string, size_t> incomplete;     // by id, the others
  double elapsed_s = 0;
  uint64_t bytes = 0;  // sent + received
  bool backlog_grew = false;
  std::vector<double> inflight_quarters;  // mean in-flight per quarter
  size_t Count(Fate fate) const { return fates[static_cast<size_t>(fate)]; }
  // Counts a finished session of client `id` with `inputs` messages;
  // keeps its record if `keep`.
  void Add(const std::string& id, SessionRecord record, size_t inputs,
           bool keep);
  // The kept record `it`, of client `id`, completed after all (a planted
  // expectation, not the server, was wrong).
  void MarkOk(std::vector<SessionRecord>::iterator it, const std::string& id,
              size_t inputs);
};

struct PhaseSpec {
  bool open_loop = false;
  double rate = 0;                 // open loop: sessions/s
  double seconds = 0;              // 0 = count-bound
  size_t max_sessions = 0;         // 0 = time-bound
  uint64_t schedule_seed = 0;      // open loop: Poisson arrivals
  // Optional: replaces the oracle's expectation (self-check plants).
  std::function<const sws::rel::Relation*(const SessionSource::Draw&)>
      expected_override;
};

class Generator {
 public:
  Generator(uint16_t port, size_t connections, Tracer* tracer);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  sws::core::Status Connect();
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  PhaseResult Run(const PhaseSpec& spec, SessionSource* source);
  uint64_t frames_rejected() const { return frames_rejected_; }

 private:
  struct Conn;
  struct Pending;

  uint16_t port_;
  size_t num_connections_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_request_ = 1;
  uint64_t frames_rejected_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer measurements (layers.cc), each timed from outside through the
// layer's public functions.

// Runtime instrumentation hook: when each session's last envelope (its
// delimiter) reached a worker.
class HookClock {
 public:
  void Touch(const std::string& session_id);
  bool Get(const std::string& session_id, Clock::time_point* out);

 private:
  std::mutex mu_;
  std::unordered_map<std::string, Clock::time_point> last_;
};

// In-process open loop straight into ServiceRuntime::Submit at the
// workload's rate: session latency from due time to the delimiter's
// OutcomeCallback, and (with a hook) delimiter queue wait.
struct InProcessResult {
  std::vector<double> session_us;
  std::vector<double> queue_wait_us;
  size_t attempted = 0;
  size_t refused = 0;
  size_t errored = 0;
  size_t timed_out = 0;
  size_t wrong = 0;
};
InProcessResult RunInProcessOpenLoop(sws::rt::ServiceRuntime* runtime,
                                     SessionSource* source, double rate,
                                     double seconds, uint64_t schedule_seed,
                                     HookClock* hook, const std::string& span,
                                     Tracer* tracer);

// Replays sessions through core::Run (memoized, as the runtime runs them)
// and then re-evaluates every rule query of a keep_tree run, timed by
// RelQuery::Language, checking each result against the kept register.
struct ReplayResult {
  size_t sessions = 0;
  double run_us = 0;             // mean core::Run per session
  double eval_us[3] = {0, 0, 0};  // mean per session: CQ, UCQ, FO
  double evals[3] = {0, 0, 0};    // mean evaluations per session
  size_t output_mismatches = 0;   // core::Run output != oracle
  size_t register_mismatches = 0;  // re-evaluation != kept register
  size_t memo_disagreements = 0;   // replayed nodes != 1 + memo misses
};
ReplayResult ReplaySws(const Workload& workload,
                       const std::vector<size_t>& pool_indices,
                       double budget_s, Tracer* tracer);

// Median microseconds to copy the seed database (every new session
// starts from such a copy).
double DbCopyMicros(const Workload& workload);

// JournalWriter Append/Sync of the workload's records in a scratch file,
// syncing after each outcome record as FsyncPolicy::kBatch does.
struct JournalResult {
  std::vector<double> append_us;
  std::vector<double> sync_us;
  bool ok = true;
};
JournalResult MeasureJournal(const Workload& workload,
                             const std::vector<size_t>& pool_indices,
                             const std::string& dir, double budget_s,
                             Tracer* tracer);

// Encode + decode of the workload's submit and outcome frames, ns/frame.
double CodecNsPerFrame(const Workload& workload,
                       const std::vector<size_t>& pool_indices,
                       double budget_s);

// Round-trip times of kPing on an idle admin connection.
std::vector<double> PingMicros(uint16_t port, int count);

// Read-only RecoveryManager::Inspect of durable dirs after a clean stop:
// every acknowledged session must be recovered complete.
struct AuditResult {
  double primary_inspect_s = 0;
  // Sessions of ids not recovered complete from the required dirs (all
  // of an id's sessions count, as which one was lost is not known).
  size_t lost = 0;
  // A planted acknowledgement for an id never sent must be reported lost.
  bool self_check_ok = true;
  std::string problem;  // first failure, for the log
};
AuditResult AuditDurability(const Workload& workload,
                            const std::vector<std::string>& dirs,
                            const std::vector<AckedSession>& acked);

// ---------------------------------------------------------------------------
// Reporting helpers (report.cc).

// Linear-interpolated quantile of the values (sorted in place); 0 if empty.
double Quantile(std::vector<double>* values, double q);
double Mean(const std::vector<double>& values);
// Parses a flat JSON object of integer values (StatsSnapshot::ToJson).
bool ParseFlatJson(const std::string& json, std::map<std::string, double>* out);
// Process user+sys CPU seconds, and peak resident set in MiB.
double ProcessCpuSeconds();
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
