// The workloads: the Figure 1 travel agency, the Section 3 web-store peer
// embedded by f_τ (volatile, or durable), and the depth-2 logger on a
// replicated group. Each builds its service and seed database, draws a seeded pool
// of sessions and precomputes every pool entry's expected output with
// core::Run on the seed database (the output oracle).

#include <algorithm>
#include <string>
#include <utility>

#include "logic/cq.h"
#include "logic/fo.h"
#include "models/travel.h"
#include "perfbench.h"
#include "relational/input_sequence.h"
#include "sws/execution.h"
#include "sws/session.h"
#include "util/common.h"

namespace perfbench {
namespace {

using sws::core::SessionRunner;
using sws::rel::Relation;
using sws::rel::Value;

// Pool sizes: enough distinct shapes to vary what the service does per
// session; small enough that the oracle stays a minor part of set-up.
// The properties that set a session's cost are stratified (every value
// equally often) and the rest drawn from the seed, so seeds vary the
// inputs without varying the mix of work.
constexpr size_t kTravelPool = 48;  // 8 first-destination slots x 3 lengths x 2
constexpr size_t kPeerPool = 252;   // 7 step counts x 36
constexpr size_t kLoggerPool = 256;

sws::rel::Database LoggerDb() {
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Log", {"x"}));
  return sws::rel::Database(schema);
}

// The depth-2 logger: commits each session's first message into Log.
// CQ rules only, so evaluation is a few microseconds.
std::unique_ptr<sws::core::Sws> MakeLogger() {
  using sws::logic::Atom;
  using sws::logic::ConjunctiveQuery;
  using sws::logic::Term;
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Log", {"x"}));
  auto sws = std::make_unique<sws::core::Sws>(schema, 1, 3);
  int q0 = sws->AddState("q0");
  int q1 = sws->AddState("q1");
  ConjunctiveQuery pass({Term::Var(0)},
                        {Atom{sws::core::kInputRelation, {Term::Var(0)}}});
  sws->SetTransition(
      q0, {sws::core::TransitionTarget{q1, sws::core::RelQuery::Cq(pass)}});
  ConjunctiveQuery copy_up(
      {Term::Var(0), Term::Var(1), Term::Var(2)},
      {Atom{sws::core::ActRelation(1),
            {Term::Var(0), Term::Var(1), Term::Var(2)}}});
  sws->SetSynthesis(q0, sws::core::RelQuery::Cq(copy_up));
  sws->SetTransition(q1, {});
  ConjunctiveQuery log_msg({Term::Str("ins"), Term::Str("Log"), Term::Var(0)},
                           {Atom{sws::core::kMsgRelation, {Term::Var(0)}}});
  sws->SetSynthesis(q1, sws::core::RelQuery::Cq(log_msg));
  SWS_CHECK(!sws->Validate().has_value()) << *sws->Validate();
  return sws;
}

// The web-store peer: requested catalogue items go to the cart (state);
// re-requesting a carted item purchases it (action).
std::unique_ptr<sws::models::Peer> MakeShopPeer() {
  using sws::logic::FoFormula;
  using sws::logic::Term;
  using sws::models::Peer;
  auto v = [](int i) { return Term::Var(i); };
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Item", {"id", "price"}));
  auto shop = std::make_unique<Peer>(schema, 1, 1, 2);
  shop->set_state_rule(FoFormula::And(
      FoFormula::Or(FoFormula::MakeAtom(Peer::kPeerState, {v(0)}),
                    FoFormula::MakeAtom(Peer::kPeerInput, {v(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {v(0), v(1)}))));
  shop->set_action_rule(
      FoFormula::And({FoFormula::MakeAtom(Peer::kPeerState, {v(0)}),
                      FoFormula::MakeAtom(Peer::kPeerInput, {v(0)}),
                      FoFormula::MakeAtom("Item", {v(0), v(1)})}));
  return shop;
}

Relation OracleOutput(const Workload& w, const std::vector<Relation>& msgs) {
  sws::rel::InputSequence input(w.message_arity);
  for (size_t i = 0; i + 1 < msgs.size(); ++i) input.Append(msgs[i]);
  sws::core::RunResult run = sws::core::Run(*w.sws, w.seed_db, input);
  SWS_CHECK(run.status.ok()) << run.status.ToString();
  return std::move(run.output);
}

void FillTravelPool(Workload* w, std::mt19937_64* rng) {
  // The service reads only the first request (it is depth 2), so its
  // destination decides the work: orlando has every offer (core::Run takes
  // about 8.7 ms against 2.5 ms for paris), paris no tickets, nowhere
  // nothing (an empty outcome, almost free). Latencies therefore cluster
  // by first destination. Queueing behind orlando runs pushes some paris
  // sessions past the cluster, and how many depends on the host's speed;
  // an eighth orlando, three quarters paris and an eighth nowhere keeps
  // the median in the middle of the paris cluster however many that is,
  // rather than at its edge, where it moves by a third between runs.
  static const char* const kDests[] = {"orlando", "paris", "nowhere"};
  static const char* const kFirst[] = {"orlando", "paris", "paris", "paris",
                                       "paris",   "paris", "paris", "nowhere"};
  for (size_t i = 0; i < kTravelPool; ++i) {
    SessionInput s;
    const size_t requests = 1 + (i / 8) % 3;
    for (size_t r = 0; r < requests; ++r) {
      const int64_t budget = 500 + static_cast<int64_t>((*rng)() % 1500);
      const char* dest = r == 0 ? kFirst[i % 8] : kDests[(*rng)() % 3];
      s.messages.push_back(sws::models::MakeTravelRequest(dest, budget));
    }
    s.messages.push_back(SessionRunner::DelimiterMessage(w->message_arity));
    w->pool.push_back(std::move(s));
  }
}

void FillPeerPool(Workload* w, std::mt19937_64* rng) {
  for (size_t i = 0; i < kPeerPool; ++i) {
    const size_t steps = 2 + i % 7;  // 2..8
    std::vector<Relation> requests;
    for (size_t k = 0; k < steps; ++k) {
      Relation request(1);
      // Items 1 and 2 are catalogued; 3 is not, so it never carts.
      const uint64_t mask = 1 + (*rng)() % 7;
      for (int64_t item = 1; item <= 3; ++item) {
        if (mask & (1u << (item - 1))) request.Insert({Value::Int(item)});
      }
      requests.push_back(std::move(request));
    }
    sws::rel::InputSequence encoded =
        sws::models::EncodePeerInput(*w->peer, requests);
    SessionInput s;
    for (size_t j = 1; j <= encoded.size(); ++j) {
      s.messages.push_back(encoded.Message(j));
    }
    s.messages.push_back(SessionRunner::DelimiterMessage(w->message_arity));
    w->pool.push_back(std::move(s));
  }
}

void FillLoggerPool(Workload* w, std::mt19937_64* rng) {
  for (size_t i = 0; i < kLoggerPool; ++i) {
    SessionInput s;
    Relation message(1);
    message.Insert({Value::Int(static_cast<int64_t>((*rng)() % 100000))});
    s.messages.push_back(std::move(message));
    s.messages.push_back(SessionRunner::DelimiterMessage(1));
    w->pool.push_back(std::move(s));
  }
}

}  // namespace

bool ParseKind(const std::string& name, Kind* out) {
  if (name == "travel") {
    *out = Kind::kTravel;
  } else if (name == "peer") {
    *out = Kind::kPeer;
  } else if (name == "peer_durable") {
    *out = Kind::kPeerDurable;
  } else if (name == "replicated_logger") {
    *out = Kind::kReplicatedLogger;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(Kind kind, uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->kind = kind;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  switch (kind) {
    case Kind::kTravel:
      w->name = "travel";
      w->sws = std::make_unique<sws::core::Sws>(
          sws::models::MakeTravelService().sws);
      w->seed_db = sws::models::MakeTravelDatabase();
      // A sixth of the closed-loop capacity of a shared 4-CPU host while a
      // neighbour halved its speed (~600/s; ~1250/s on a quiet host). At
      // 160/s, waits behind orlando runs moved the median by a quarter
      // between runs in such spells.
      w->open_rate = 100;
      // In a fresh process the first set-up round runs about twice as
      // slow and the second round's first ~60 sessions still lag.
      w->warmup_sessions = 300;
      w->message_arity = w->sws->rin_arity();
      FillTravelPool(w.get(), &rng);
      break;
    case Kind::kPeer:
    case Kind::kPeerDurable: {
      w->durable = kind == Kind::kPeerDurable;
      w->name = w->durable ? "peer_durable" : "peer";
      w->peer = MakeShopPeer();
      w->sws = std::make_unique<sws::core::Sws>(
          sws::models::PeerToSws(*w->peer));
      Relation items(2);
      items.Insert({Value::Int(1), Value::Int(10)});
      items.Insert({Value::Int(2), Value::Int(25)});
      w->seed_db.Set("Item", items);
      // At most half the lowest closed-loop capacity of a run seen on a
      // shared 4-CPU host: durable ~1350/s during an I/O stall, volatile
      // ~2800/s while a neighbour halved the host's speed (~19000/s on a
      // quiet host).
      w->open_rate = w->durable ? 600 : 1400;
      w->warmup_sessions = 1000;
      w->setup_rounds = 15;  // a round takes about 0.1 s
      w->message_arity = w->sws->rin_arity();
      FillPeerPool(w.get(), &rng);
      break;
    }
    case Kind::kReplicatedLogger:
      w->name = "replicated_logger";
      w->sws = MakeLogger();
      w->seed_db = LoggerDb();
      w->durable = true;
      w->replicated = true;
      w->open_rate = 100;
      // Only a round's first ~6 sessions (dialling follower links) lag.
      w->warmup_sessions = 100;
      w->setup_rounds = 15;  // a round takes about 0.1 s
      w->message_arity = 1;
      FillLoggerPool(w.get(), &rng);
      break;
  }
  for (SessionInput& s : w->pool) s.expected = OracleOutput(*w, s.messages);
  return w;
}

SessionSource::SessionSource(const Workload* workload, uint64_t seed,
                             std::string prefix)
    : workload_(workload), prefix_(std::move(prefix)), rng_(seed) {
  if (workload->replicated) {
    group_ = std::make_unique<sws::replication::ReplicaGroup>(
        std::vector<std::string>{"n0", "n1", "n2"});
  }
}

SessionSource::Draw SessionSource::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  Draw d;
  if (idle_.empty()) {
    for (;;) {
      d.id = prefix_ + "-" + std::to_string(counter_++);
      if (!group_ || group_->PrimaryOf(d.id) == "n0") break;
    }
    ++minted_;
  } else {
    d.id = std::move(idle_.front());
    idle_.pop_front();
  }
  if (order_.empty() || next_ == order_.size()) {
    order_.resize(workload_->pool.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::shuffle(order_.begin(), order_.end(), rng_);
    next_ = 0;
  }
  d.pool_index = order_[next_++];
  d.input = &workload_->pool[d.pool_index];
  return d;
}

void SessionSource::Release(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(id);
}

size_t SessionSource::population() {
  std::lock_guard<std::mutex> lock(mu_);
  return minted_;
}

}  // namespace perfbench
