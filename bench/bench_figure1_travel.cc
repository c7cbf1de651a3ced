// Figure 1: the FSA (sequential) vs SWS (parallel, deferred-commit)
// specification of the travel-package service. The paper's three
// motivations for SWS's are measured on a synthetic workload:
//  1. *Parallelism*: the FSA chains airfare → hotel → local-arrangement
//     checks, so its end-to-end latency is the SUM of per-check
//     latencies; the SWS issues them in parallel, paying the MAX.
//  2. *Deferred commitment*: the FSA books as it goes and must roll back
//     earlier bookings when a later conjunct fails; the SWS synthesizes
//     first and commits once — zero rollbacks.
//  3. *Deterministic synthesis*: when both tickets and a car are
//     available, the SWS commits to exactly one option (no double
//     bookings); a nondeterministic FSA may try both branches.
// Latencies are simulated (fixed per-catalog costs), so the shape — sum
// vs max, rollbacks vs none — is hardware-independent. The real engine's
// run cost is measured alongside.

#include <benchmark/benchmark.h>

#include <random>

#include "models/peer.h"
#include "models/travel.h"
#include "sws/execution.h"

namespace {

// Simulated per-check latencies (milliseconds).
constexpr double kAirfareMs = 120;
constexpr double kHotelMs = 90;
constexpr double kTicketMs = 60;
constexpr double kCarMs = 50;

struct Workload {
  // Per-request availability flags.
  std::vector<std::array<bool, 4>> requests;  // airfare, hotel, ticket, car
};

Workload MakeWorkload(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coin(0, 9);
  Workload w;
  for (size_t i = 0; i < n; ++i) {
    w.requests.push_back({coin(rng) < 9,   // airfare usually available
                          coin(rng) < 7,   // hotels sometimes full
                          coin(rng) < 5,   // tickets 50/50
                          coin(rng) < 8}); // cars mostly available
  }
  return w;
}

// The sequential FSA of Figure 1(a): airfare, then hotel, then ticket,
// then (on failure) car; bookings commit eagerly and roll back on a
// later failure.
void BM_Figure1SequentialFsa(benchmark::State& state) {
  Workload w = MakeWorkload(4096, 42);
  double total_latency = 0;
  uint64_t rollbacks = 0;
  uint64_t booked = 0;
  for (auto _ : state) {
    total_latency = 0;
    rollbacks = 0;
    booked = 0;
    for (const auto& r : w.requests) {
      double latency = kAirfareMs;  // always checks airfare first
      int committed = 0;
      bool ok = r[0];
      if (ok) {
        ++committed;  // airfare booked eagerly
        latency += kHotelMs;
        ok = r[1];
      }
      if (ok) {
        ++committed;  // hotel booked eagerly
        latency += kTicketMs;
        if (!r[2]) {
          latency += kCarMs;  // fall back to the car desk
          ok = r[3];
        }
      }
      if (ok) {
        ++booked;
      } else {
        rollbacks += committed;  // cancel earlier eager bookings
      }
      total_latency += latency;
      benchmark::DoNotOptimize(latency);
    }
  }
  state.counters["avg_latency_ms"] =
      total_latency / static_cast<double>(w.requests.size());
  state.counters["rollbacks"] = static_cast<double>(rollbacks);
  state.counters["booked"] = static_cast<double>(booked);
}
BENCHMARK(BM_Figure1SequentialFsa);

// The SWS of Figure 1(b): all four checks in parallel (latency = max),
// synthesis decides afterwards, commitment deferred (no rollbacks ever).
void BM_Figure1ParallelSws(benchmark::State& state) {
  Workload w = MakeWorkload(4096, 42);
  double total_latency = 0;
  uint64_t rollbacks = 0;
  uint64_t booked = 0;
  for (auto _ : state) {
    total_latency = 0;
    rollbacks = 0;
    booked = 0;
    for (const auto& r : w.requests) {
      double latency =
          std::max({kAirfareMs, kHotelMs, kTicketMs, kCarMs});
      bool ok = r[0] && r[1] && (r[2] || r[3]);
      if (ok) ++booked;
      // Deferred commitment: nothing to roll back on failure.
      total_latency += latency;
      benchmark::DoNotOptimize(ok);
    }
  }
  state.counters["avg_latency_ms"] =
      total_latency / static_cast<double>(w.requests.size());
  state.counters["rollbacks"] = static_cast<double>(rollbacks);
  state.counters["booked"] = static_cast<double>(booked);
}
BENCHMARK(BM_Figure1ParallelSws);

// The real execution engine on the Figure 1 service: per-session run
// cost over the three destinations (success, fallback, failure).
void BM_Figure1EngineRun(benchmark::State& state) {
  auto service = sws::models::MakeTravelService();
  auto db = sws::models::MakeTravelDatabase();
  std::vector<sws::rel::InputSequence> inputs;
  for (const char* dest : {"orlando", "paris", "tokyo"}) {
    sws::rel::InputSequence input(3);
    input.Append(sws::models::MakeTravelRequest(dest, 1000));
    inputs.push_back(std::move(input));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sws::core::Run(service.sws, db, inputs[i % 3]).output.size());
    ++i;
  }
}
BENCHMARK(BM_Figure1EngineRun);

// The real engine on the Section 3 web-store peer through f_τ
// (PeerToSws), the service of perfbench's `peer` workload: requested
// catalogue items go to the cart, re-requested carted items are bought.
// Sessions of 2..8 steps; each one is a recursive run of cheap FO rules
// over relations of a few rows, so per-evaluation overhead dominates.
void BM_PeerEngineRun(benchmark::State& state) {
  using sws::logic::FoFormula;
  using sws::logic::Term;
  using sws::models::Peer;
  auto v = [](int i) { return Term::Var(i); };
  sws::rel::Schema schema;
  schema.Add(sws::rel::RelationSchema("Item", {"id", "price"}));
  Peer shop(schema, 1, 1, 2);
  shop.set_state_rule(FoFormula::And(
      FoFormula::Or(FoFormula::MakeAtom(Peer::kPeerState, {v(0)}),
                    FoFormula::MakeAtom(Peer::kPeerInput, {v(0)})),
      FoFormula::Exists(1, FoFormula::MakeAtom("Item", {v(0), v(1)}))));
  shop.set_action_rule(
      FoFormula::And({FoFormula::MakeAtom(Peer::kPeerState, {v(0)}),
                      FoFormula::MakeAtom(Peer::kPeerInput, {v(0)}),
                      FoFormula::MakeAtom("Item", {v(0), v(1)})}));
  const sws::core::Sws sws = sws::models::PeerToSws(shop);
  sws::rel::Database db;
  sws::rel::Relation items(2);
  items.Insert({sws::rel::Value::Int(1), sws::rel::Value::Int(10)});
  items.Insert({sws::rel::Value::Int(2), sws::rel::Value::Int(25)});
  db.Set("Item", items);
  // Item 3 is not catalogued, so it never carts.
  std::mt19937_64 rng(42);
  std::vector<sws::rel::InputSequence> inputs;
  for (size_t steps = 2; steps <= 8; ++steps) {
    std::vector<sws::rel::Relation> requests;
    for (size_t k = 0; k < steps; ++k) {
      sws::rel::Relation request(1);
      const uint64_t mask = 1 + rng() % 7;
      for (int64_t item = 1; item <= 3; ++item) {
        if (mask & (1u << (item - 1))) {
          request.Insert({sws::rel::Value::Int(item)});
        }
      }
      requests.push_back(std::move(request));
    }
    inputs.push_back(sws::models::EncodePeerInput(shop, requests));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sws::core::Run(sws, db, inputs[i % inputs.size()]).output.size());
    ++i;
  }
}
BENCHMARK(BM_PeerEngineRun);

// Catalog-size scaling of the engine (the FO synthesis evaluates over
// the active domain).
void BM_Figure1EngineCatalogScaling(benchmark::State& state) {
  auto service = sws::models::MakeTravelService();
  auto db = sws::models::MakeTravelDatabase();
  int extra = static_cast<int>(state.range(0));
  for (int i = 0; i < extra; ++i) {
    std::string dest = "city" + std::to_string(i);
    for (const char* rel : {"Ra", "Rh", "Rt", "Rc"}) {
      db.GetMutable(rel)->Insert(
          {sws::rel::Value::Str(dest), sws::rel::Value::Int(100 + i)});
    }
  }
  sws::rel::InputSequence input(3);
  input.Append(sws::models::MakeTravelRequest("orlando", 1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sws::core::Run(service.sws, db, input).output.size());
  }
}
BENCHMARK(BM_Figure1EngineCatalogScaling)->RangeMultiplier(4)->Range(1, 64);

}  // namespace

BENCHMARK_MAIN();
