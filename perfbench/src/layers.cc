// Per-layer measurements for the traced run. Each times calls into one
// module's public functions from outside; nothing inside the library is
// instrumented.

#include <condition_variable>
#include <filesystem>
#include <thread>
#include <unordered_set>
#include <utility>

#include "net/client.h"
#include "net/messages.h"
#include "net/wire.h"
#include "perfbench.h"
#include "persistence/journal.h"
#include "persistence/recovery.h"
#include "persistence/serde.h"
#include "relational/input_sequence.h"
#include "sws/execution.h"
#include "sws/query.h"

namespace perfbench {

namespace {

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

sws::rel::InputSequence Requests(const Workload& w, const SessionInput& s) {
  sws::rel::InputSequence input(w.message_arity);
  for (size_t i = 0; i + 1 < s.messages.size(); ++i) {
    input.Append(s.messages[i]);
  }
  return input;
}

}  // namespace

void HookClock::Touch(const std::string& session_id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  last_[session_id] = now;
}

bool HookClock::Get(const std::string& session_id, Clock::time_point* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = last_.find(session_id);
  if (it == last_.end()) return false;
  *out = it->second;
  return true;
}

InProcessResult RunInProcessOpenLoop(sws::rt::ServiceRuntime* runtime,
                                     SessionSource* source, double rate,
                                     double seconds, uint64_t schedule_seed,
                                     HookClock* hook, const std::string& span,
                                     Tracer* tracer) {
  InProcessResult result;
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;
  std::mt19937_64 rng(schedule_seed);
  std::exponential_distribution<double> gap(rate);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t_end = t0 + Seconds(seconds);
  Clock::time_point due = t0 + Seconds(gap(rng));
  size_t submitted = 0;
  while (due < t_end) {
    std::this_thread::sleep_until(due);
    SessionSource::Draw draw = source->Next();
    const SessionInput* input = draw.input;
    const std::string id = draw.id;
    const size_t n = input->messages.size();
    bool admitted = true;
    for (size_t i = 0; i < n && admitted; ++i) {
      sws::rt::OutcomeCallback callback;
      if (i + 1 == n) {
        const Clock::time_point submit_at = Clock::now();
        callback = [&, input, id, due, submit_at](sws::rt::Outcome outcome) {
          const Clock::time_point now = Clock::now();
          source->Release(id);
          Clock::time_point picked{};
          const bool hooked = hook != nullptr && hook->Get(id, &picked);
          const bool ok = outcome.status.ok() && outcome.session.has_value();
          const bool match = ok && outcome.session->output == input->expected;
          if (tracer->enabled()) {
            const uint64_t root = tracer->Record(span, 0, id, due, now);
            if (hooked) {
              tracer->Record(span + ".queue_wait", root, id, submit_at, picked);
              tracer->Record(span + ".run", root, id, picked, now);
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          if (!ok) {
            ++result.errored;
          } else if (!match) {
            ++result.wrong;
          } else {
            result.session_us.push_back(MicrosBetween(due, now));
            if (hooked) {
              result.queue_wait_us.push_back(MicrosBetween(submit_at, picked));
            }
          }
          ++done;
          done_cv.notify_all();
        };
      }
      admitted = runtime->Submit(id, input->messages[i], std::move(callback))
                     .ok();
    }
    ++result.attempted;
    if (admitted) {
      ++submitted;
    } else {
      ++result.refused;
    }
    due += Seconds(gap(rng));
  }
  std::unique_lock<std::mutex> lock(mu);
  if (!done_cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return done == submitted; })) {
    result.timed_out = submitted - done;
    // Callbacks still pending reference this frame; wait them out.
    lock.unlock();
    runtime->Drain();
    lock.lock();
    done_cv.wait(lock, [&] { return done == submitted; });
  }
  return result;
}

namespace {

struct MemoKey {
  int state;
  size_t timestamp;
  sws::rel::Relation msg;
  bool operator==(const MemoKey& o) const {
    return state == o.state && timestamp == o.timestamp && msg == o.msg;
  }
};
struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    return k.msg.Hash() ^
           (static_cast<size_t>(k.state) * 0x9E3779B97F4A7C15ull) ^
           (k.timestamp * 0xC2B2AE3D27D4EB4Full);
  }
};

// Walks a keep_tree execution tree as the memoized engine evaluates it:
// a non-root node whose (state, timestamp, Msg) label was already seen
// is a memo hit and its subtree is skipped.
class TreeReplay {
 public:
  TreeReplay(const Workload& w, const sws::rel::InputSequence& input)
      : w_(w), input_(input), env_(w.seed_db), empty_(w.message_arity) {}

  void Walk(const sws::core::ExecNode& node, bool is_root) {
    ++evaluated_;
    if (!is_root) {
      MemoKey key{node.state, node.timestamp, node.msg};
      if (!seen_.insert(std::move(key)).second) {
        --evaluated_;
        return;
      }
    }
    const size_t n = input_.size();
    const size_t j = node.timestamp;
    if (j > n || (node.msg.empty() && !is_root)) return;
    if (is_root && node.msg.empty() && n == 0) return;
    const auto& successors = w_.sws->Successors(node.state);
    if (successors.empty()) {
      env_.Set(sws::core::kInputRelation, j == 0 ? empty_ : input_.Message(j));
      env_.Set(sws::core::kMsgRelation, node.msg);
      Check(w_.sws->Synthesis(node.state), env_, node.act);
      return;
    }
    env_.Set(sws::core::kInputRelation, input_.Message(j + 1));
    env_.Set(sws::core::kMsgRelation, node.msg);
    for (size_t i = 0; i < successors.size(); ++i) {
      const sws::rel::Relation* kept =
          i < node.children.size() ? &node.children[i]->msg : nullptr;
      Check(successors[i].query, env_, kept ? *kept : empty_);
    }
    for (const auto& child : node.children) Walk(*child, false);
    sws::rel::Database synth_env;
    for (size_t i = 0; i < node.children.size(); ++i) {
      synth_env.Set(sws::core::ActRelation(i + 1), node.children[i]->act);
    }
    Check(w_.sws->Synthesis(node.state), synth_env, node.act);
  }

  // Records one span per evaluation, named by language.
  void EmitSpans(Tracer* tracer, uint64_t parent,
                 const std::string& session) const {
    static const char* const kNames[] = {"logic.cq_eval", "logic.ucq_eval",
                                         "logic.fo_eval"};
    for (const Timed& t : timed) {
      tracer->Record(kNames[t.lang], parent, session, t.start, t.end);
    }
  }
  double total_eval_us() const { return eval_us[0] + eval_us[1] + eval_us[2]; }

  struct Timed {
    int lang;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Timed> timed;
  double eval_us[3] = {0, 0, 0};
  uint64_t evals[3] = {0, 0, 0};
  size_t mismatches = 0;
  size_t evaluated() const { return evaluated_; }

 private:
  void Check(const sws::core::RelQuery& query, const sws::rel::Database& env,
             const sws::rel::Relation& kept) {
    const int lang = static_cast<int>(query.language());
    const Clock::time_point a = Clock::now();
    sws::rel::Relation got = query.Evaluate(env);
    const Clock::time_point b = Clock::now();
    timed.push_back({lang, a, b});
    eval_us[lang] += MicrosBetween(a, b);
    ++evals[lang];
    if (!(got == kept)) ++mismatches;
  }

  const Workload& w_;
  const sws::rel::InputSequence& input_;
  sws::rel::Database env_;
  const sws::rel::Relation empty_;
  std::unordered_set<MemoKey, MemoKeyHash> seen_;
  size_t evaluated_ = 0;
};

}  // namespace

ReplayResult ReplaySws(const Workload& workload,
                       const std::vector<size_t>& pool_indices,
                       double budget_s, Tracer* tracer) {
  constexpr int kRepeats = 3;
  ReplayResult r;
  const Clock::time_point stop = Clock::now() + Seconds(budget_s);
  double eval_sum[3] = {0, 0, 0};
  double eval_count[3] = {0, 0, 0};
  double run_sum = 0;
  for (size_t index : pool_indices) {
    if (r.sessions > 0 && Clock::now() >= stop) break;
    const SessionInput& s = workload.pool[index];
    const sws::rel::InputSequence input = Requests(workload, s);
    const std::string session = "replay-" + std::to_string(r.sessions);
    // Each timing keeps the fastest of kRepeats passes (the work is
    // deterministic; slower passes measure the host, not the code).
    Clock::time_point a = Clock::now();
    sws::core::RunResult fast = sws::core::Run(*workload.sws, workload.seed_db,
                                               input);
    Clock::time_point b = Clock::now();
    for (int pass = 1; pass < kRepeats; ++pass) {
      const Clock::time_point a2 = Clock::now();
      sws::core::Run(*workload.sws, workload.seed_db, input);
      const Clock::time_point b2 = Clock::now();
      if (b2 - a2 < b - a) {
        a = a2;
        b = b2;
      }
    }
    run_sum += MicrosBetween(a, b);
    tracer->Record("sws.run", 0, session, a, b);
    if (!fast.status.ok() || !(fast.output == s.expected)) {
      ++r.output_mismatches;
    }
    sws::core::RunOptions keep;
    keep.keep_tree = true;
    sws::core::RunResult full =
        sws::core::Run(*workload.sws, workload.seed_db, input, keep);
    // Replayed from fresh environments, keeping the fastest pass.
    std::unique_ptr<TreeReplay> replay;
    Clock::time_point c{}, d{};
    for (int pass = 0; pass < kRepeats && full.tree; ++pass) {
      auto attempt = std::make_unique<TreeReplay>(workload, input);
      const Clock::time_point c2 = Clock::now();
      attempt->Walk(*full.tree, true);
      const Clock::time_point d2 = Clock::now();
      if (!replay || attempt->total_eval_us() < replay->total_eval_us()) {
        replay = std::move(attempt);
        c = c2;
        d = d2;
      }
    }
    if (!replay) replay = std::make_unique<TreeReplay>(workload, input);
    const uint64_t root = tracer->Record("sws.replay", 0, session, c, d);
    replay->EmitSpans(tracer, root, session);
    for (int l = 0; l < 3; ++l) {
      eval_sum[l] += replay->eval_us[l];
      eval_count[l] += static_cast<double>(replay->evals[l]);
    }
    r.register_mismatches += replay->mismatches;
    if (replay->evaluated() != 1 + fast.memo_misses) ++r.memo_disagreements;
    ++r.sessions;
  }
  if (r.sessions > 0) {
    const double n = static_cast<double>(r.sessions);
    r.run_us = run_sum / n;
    for (int l = 0; l < 3; ++l) {
      r.eval_us[l] = eval_sum[l] / n;
      r.evals[l] = eval_count[l] / n;
    }
  }
  return r;
}

double DbCopyMicros(const Workload& workload) {
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const Clock::time_point a = Clock::now();
    sws::rel::Database copy(workload.seed_db);
    const Clock::time_point b = Clock::now();
    // Reads the copy so the compiler cannot drop it.
    if (copy.relations().size() != workload.seed_db.relations().size()) {
      return -1;
    }
    samples.push_back(MicrosBetween(a, b));
  }
  return Quantile(&samples, 0.5);
}

JournalResult MeasureJournal(const Workload& workload,
                             const std::vector<size_t>& pool_indices,
                             const std::string& dir, double budget_s,
                             Tracer* tracer) {
  JournalResult r;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal-probe.log";
  std::filesystem::remove(path);
  sws::persistence::SegmentHeader header;
  header.incarnation = 1;
  header.service_fingerprint = sws::persistence::SwsFingerprint(*workload.sws);
  {
    sws::persistence::JournalWriter writer(path, header, nullptr);
    if (!writer.Open().ok()) {
      r.ok = false;
      return r;
    }
    const Clock::time_point stop = Clock::now() + Seconds(budget_s);
    size_t session = 0;
    for (size_t index : pool_indices) {
      if (session > 0 && Clock::now() >= stop) break;
      const SessionInput& s = workload.pool[index];
      const std::string id = "journal-" + std::to_string(session++);
      auto append = [&](const sws::persistence::JournalRecord& record) {
        const Clock::time_point a = Clock::now();
        r.ok = writer.Append(record).ok() && r.ok;
        const Clock::time_point b = Clock::now();
        tracer->Record("persistence.append", 0, id, a, b);
        r.append_us.push_back(MicrosBetween(a, b));
      };
      sws::persistence::JournalRecord record;
      record.session_id = id;
      for (size_t i = 0; i < s.messages.size(); ++i) {
        record.type = sws::persistence::JournalRecord::Type::kInput;
        record.seq = i;
        record.payload = s.messages[i];
        append(record);
      }
      record.type = sws::persistence::JournalRecord::Type::kOutcome;
      record.seq = s.messages.size() - 1;
      record.payload = s.expected;
      append(record);
      const Clock::time_point a = Clock::now();
      r.ok = writer.Sync().ok() && r.ok;
      const Clock::time_point b = Clock::now();
      tracer->Record("persistence.sync", 0, id, a, b);
      r.sync_us.push_back(MicrosBetween(a, b));
    }
    writer.Close();
  }
  std::filesystem::remove(path);
  return r;
}

double CodecNsPerFrame(const Workload& workload,
                       const std::vector<size_t>& pool_indices,
                       double budget_s) {
  using sws::net::MsgType;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = t0 + Seconds(budget_s);
  uint64_t frames = 0;
  uint64_t request_id = 0;
  size_t checksum = 0;
  sws::net::FrameDecoder decoder;
  sws::net::Frame frame;
  while (frames == 0 || Clock::now() < stop) {
    for (size_t index : pool_indices) {
      const SessionInput& s = workload.pool[index];
      for (const sws::rel::Relation& message : s.messages) {
        sws::net::SubmitRequest request;
        request.request_id = ++request_id;
        request.session_id = "codec";
        request.message = message;
        decoder.Feed(sws::net::EncodeFrame(
            MsgType::kSubmit, sws::net::EncodeSubmitRequest(request)));
        if (decoder.Next(&frame) == sws::net::FrameDecoder::Result::kFrame) {
          auto decoded = sws::net::DecodeSubmitRequest(frame.payload);
          if (decoded) checksum += decoded->message.size();
        }
        ++frames;
      }
      sws::net::OutcomeReply reply;
      reply.request_id = request_id;
      reply.session_id = "codec";
      reply.has_output = true;
      reply.output = s.expected;
      decoder.Feed(sws::net::EncodeFrame(MsgType::kOutcome,
                                         sws::net::EncodeOutcomeReply(reply)));
      if (decoder.Next(&frame) == sws::net::FrameDecoder::Result::kFrame) {
        auto decoded = sws::net::DecodeOutcomeReply(frame.payload);
        if (decoded) checksum += decoded->output.size();
      }
      ++frames;
      if (Clock::now() >= stop) break;
    }
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  // Keeps the decode results observable.
  if (checksum == ~size_t{0}) return -1;
  return ns / static_cast<double>(frames);
}

std::vector<double> PingMicros(uint16_t port, int count) {
  sws::net::RpcClient::Options options;
  options.port = port;
  sws::net::RpcClient client(options);
  std::vector<double> samples;
  if (!client.Connect().ok()) return samples;
  for (int i = 0; i < count + 10; ++i) {
    const Clock::time_point a = Clock::now();
    const bool ok = client.Ping("perfbench").ok();
    const Clock::time_point b = Clock::now();
    if (!ok) break;
    if (i >= 10) samples.push_back(MicrosBetween(a, b));  // first 10 warm
  }
  return samples;
}

AuditResult AuditDurability(const Workload& workload,
                            const std::vector<std::string>& dirs,
                            const std::vector<AckedSession>& acked) {
  AuditResult audit;
  if (dirs.empty()) return audit;
  auto inspect = [&](const std::string& dir) {
    sws::persistence::RecoveryManager manager(
        dir, workload.sws.get(), workload.seed_db,
        sws::persistence::RecoveryOptions{}, nullptr);
    return manager.Inspect();
  };
  // An acknowledged session is recovered complete: every input journaled
  // (next_seq == inputs), nothing buffered, and its outcome suppressed
  // rather than awaiting re-emission.
  auto complete = [](const sws::persistence::RecoveryResult& r,
                     const AckedSession& s) {
    auto it = r.sessions.find(s.id);
    if (it == r.sessions.end()) return false;
    if (it->second.next_seq != s.inputs || !it->second.pending.empty()) {
      return false;
    }
    for (const auto& replayed : r.replayed) {
      if (replayed.session_id == s.id) return false;
    }
    return true;
  };
  const Clock::time_point a = Clock::now();
  sws::persistence::RecoveryResult primary = inspect(dirs[0]);
  audit.primary_inspect_s = MicrosBetween(a, Clock::now()) * 1e-6;
  if (!primary.status.ok()) {
    audit.problem = dirs[0] + ": " + primary.status.ToString();
    for (const AckedSession& s : acked) audit.lost += s.sessions;
    return audit;
  }
  std::vector<sws::persistence::RecoveryResult> followers;
  for (size_t i = 1; i < dirs.size(); ++i) {
    followers.push_back(inspect(dirs[i]));
    if (!followers.back().status.ok()) {
      audit.problem = dirs[i] + ": " + followers.back().status.ToString();
      for (const AckedSession& s : acked) audit.lost += s.sessions;
      return audit;
    }
  }
  const AckedSession planted{"planted-never-sent", 2, 1};
  audit.self_check_ok = !complete(primary, planted);
  for (const AckedSession& s : acked) {
    bool ok = complete(primary, s);
    // With ack_quorum = 1 an acknowledged outcome is durable on at least
    // one follower, not on a chosen one.
    if (ok && !followers.empty()) {
      bool on_follower = false;
      for (const auto& f : followers) {
        on_follower = on_follower || complete(f, s);
      }
      ok = on_follower;
    }
    if (!ok) {
      if (audit.lost == 0) audit.problem = "acknowledged session lost: " + s.id;
      audit.lost += s.sessions;
    }
  }
  return audit;
}

}  // namespace perfbench
