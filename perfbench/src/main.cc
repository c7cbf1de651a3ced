// perfbench: the end-to-end session-commit benchmark.
//
//   perfbench --workload travel|peer|peer_durable|replicated_logger --seed N
//             --seconds S --trace 0|1 --scratch DIR [--spans DIR]
//
// Drives the serving stack — generator → net front door → runtime
// admission/strand → sws engine → logic evaluators → persistence journal
// → replication quorum → outcome frame — and checks every outcome
// against an oracle computed with core::Run on the seed database.
//
// --trace 0 reports the end-to-end metrics: set-up time (median of
// several set-ups, each with its warm-up), closed-loop capacity and CPU per
// session, open-loop commit latency, peak memory. --trace 1 is a separate
// run that times each layer through its public functions and records
// spans around those calls; it prints the per-layer metrics and a table
// of layer self times on the blocking path.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/client.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string spans;  // where a traced run writes its spans
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         args->seconds > 0;
}

// Sessions attempted and how the failed ones failed.
struct Tally {
  size_t attempted = 0;
  size_t refused = 0;
  size_t errored = 0;
  size_t timed_out = 0;
  size_t wrong = 0;
  size_t lost_ack = 0;

  size_t failed() const {
    return refused + errored + timed_out + wrong + lost_ack;
  }
  void Add(const PhaseResult& phase) {
    attempted += phase.attempted;
    refused += phase.Count(Fate::kRefused);
    errored += phase.Count(Fate::kErrored);
    timed_out += phase.Count(Fate::kTimedOut);
    wrong += phase.Count(Fate::kWrong);
  }
  void Add(const InProcessResult& phase) {
    attempted += phase.attempted;
    refused += phase.refused;
    errored += phase.errored;
    timed_out += phase.timed_out;
    wrong += phase.wrong;
  }
};

// Latencies of a phase's sessions; a failed session counts as missing
// every latency limit, so it enters the distribution at the timeout.
std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  for (const SessionRecord& s : phase.sessions) {
    out.push_back(s.fate == Fate::kOk ? s.latency_us : kSessionTimeoutS * 1e6);
  }
  return out;
}

size_t OkCount(const PhaseResult& phase) { return phase.Count(Fate::kOk); }

// Mean latency of each fifth of a phase's sessions, in completion order:
// shows whether the warm-up outlasted the first-iteration effect.
std::vector<double> FifthMeans(const PhaseResult& phase) {
  std::vector<double> lat = Latencies(phase);
  std::vector<double> means;
  for (size_t k = 0; k < 5; ++k) {
    means.push_back(Mean(std::vector<double>(
        lat.begin() + k * lat.size() / 5,
        lat.begin() + (k + 1) * lat.size() / 5)));
  }
  return means;
}

// Latency quantile q over consecutive windows of at least `window`
// sessions (`phase` is in due-time order), reported as the median across
// windows: a stall on a shared host moves the windows it hits, not the
// result. For p99 the window is 1000 sessions, so each p99 has ten
// samples beyond it.
double WindowedQuantile(const PhaseResult& phase, double q, size_t window,
                        size_t* windows) {
  const std::vector<SessionRecord>& sessions = phase.sessions;
  const size_t n = std::max<size_t>(1, sessions.size() / window);
  std::vector<double> per_window;
  for (size_t k = 0; k < n; ++k) {
    const size_t from = k * sessions.size() / n;
    const size_t to = (k + 1) * sessions.size() / n;
    std::vector<double> lat;
    for (size_t i = from; i < to; ++i) {
      lat.push_back(sessions[i].fate == Fate::kOk ? sessions[i].latency_us
                                                  : kSessionTimeoutS * 1e6);
    }
    per_window.push_back(Quantile(&lat, q));
  }
  *windows = n;
  return Quantile(&per_window, 0.5);
}

// Everything one set-up builds; the last set-up's instance is measured.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Generator> generator;
  std::string dir;
  PhaseResult warmup;
  bool self_check_ok = false;
  std::string self_check_note;
};

constexpr size_t kConnections = 4;
// Offered rate of the probe group's in-process loops, sessions/s: the
// replicated_logger workload's.
constexpr double kProbeRate = 100;
constexpr size_t kRounds = 30;
constexpr size_t kTracedWindows = 8;

// Builds the workload (pool + oracle), starts the stack, connects the
// generator and runs the count-based warm-up. The first warm-up session
// carries a planted wrong expectation: the oracle must flag it, and it
// is then excluded from every tally.
bool DoSetup(Kind kind, const Args& args, int round, Tracer* off,
             Setup* out) {
  out->workload = MakeWorkload(kind, args.seed);
  out->dir = args.scratch + "/round" + std::to_string(round);
  std::filesystem::remove_all(out->dir);
  for (const char* node : {"n0", "n1", "n2"}) {
    std::filesystem::create_directories(out->dir + "/" + node);
  }
  out->stack = std::make_unique<Stack>(out->workload.get(), out->dir);
  sws::core::Status started = out->stack->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: stack start failed: %s\n",
                 started.ToString().c_str());
    return false;
  }
  out->generator =
      std::make_unique<Generator>(out->stack->port(), kConnections, off);
  sws::core::Status connected = out->generator->Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "perfbench: connect failed: %s\n",
                 connected.ToString().c_str());
    return false;
  }
  SessionSource source(out->workload.get(), args.seed * 1000003 + round,
                       "warm" + std::to_string(round));
  std::string planted_id;
  sws::rel::Relation planted;
  PhaseSpec spec;
  spec.max_sessions = out->workload->warmup_sessions;
  spec.expected_override =
      [&](const SessionSource::Draw& d) -> const sws::rel::Relation* {
    if (!planted_id.empty()) return nullptr;
    planted_id = d.id;
    planted = d.input->expected;
    std::vector<sws::rel::Value> extra(planted.arity(),
                                       sws::rel::Value::Str("planted"));
    planted.Insert(sws::rel::Tuple(extra.begin(), extra.end()));
    return &planted;
  };
  out->warmup = out->generator->Run(spec, &source);
  auto& sessions = out->warmup.sessions;
  auto it = std::find_if(sessions.begin(), sessions.end(),
                         [&](const SessionRecord& s) {
                           return s.planted;
                         });
  out->self_check_ok = it != sessions.end() && it->fate == Fate::kWrong;
  out->self_check_note = it == sessions.end() ? "planted session missing"
                         : out->self_check_ok ? "planted mismatch caught"
                                              : "planted mismatch NOT caught";
  if (it != sessions.end()) {
    // The planted expectation, not the server, was wrong.
    out->warmup.MarkOk(it, planted_id,
                       out->workload->pool[it->pool_index].messages.size());
  }
  return true;
}

void TearDown(Setup* s) {
  s->generator.reset();
  if (s->stack) s->stack->Stop();
  s->stack.reset();
  std::filesystem::remove_all(s->dir);
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<size_t>(1, tally.attempted));
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatValue(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTally(const char* what, const Tally& t) {
  std::printf(
      "%s: attempted=%zu failed=%zu failed_frac=%.6f (refused=%zu "
      "errored=%zu timed_out=%zu wrong_output=%zu lost_ack=%zu)\n",
      what, t.attempted, t.failed(),
      t.attempted ? static_cast<double>(t.failed()) /
                        static_cast<double>(t.attempted)
                  : 0.0,
      t.refused, t.errored, t.timed_out, t.wrong, t.lost_ack);
}

// Acknowledged inputs per client id. An id with any session that did not
// complete is left out: how many of its inputs the server journaled is
// then unknown.
std::vector<AckedSession> Acked(const std::vector<const PhaseResult*>& phases) {
  std::map<std::string, AckedSession> by_id;
  std::set<std::string> incomplete;
  for (const PhaseResult* phase : phases) {
    for (const auto& [id, a] : phase->acked) {
      AckedSession& total = by_id[id];
      total.id = id;
      total.inputs += a.inputs;
      total.sessions += a.sessions;
    }
    for (const auto& [id, n] : phase->incomplete) incomplete.insert(id);
  }
  std::vector<AckedSession> acked;
  for (const auto& [id, a] : by_id) {
    if (!incomplete.count(id)) acked.push_back(a);
  }
  return acked;
}

bool ReadStats(const Setup& s, std::map<std::string, double>* stats) {
  std::string json;
  if (s.workload->replicated) {
    auto runtime = s.stack->runtime();
    if (!runtime) return false;
    json = runtime->Stats().ToJson();
  } else {
    sws::net::RpcClient::Options options;
    options.port = s.stack->port();
    sws::net::RpcClient admin(options);
    if (!admin.GetStats(&json).ok()) return false;
  }
  return ParseFlatJson(json, stats);
}

int Main(int argc, char** argv) {
  Args args;
  Kind kind;
  if (!ParseArgs(argc, argv, &args) || !ParseKind(args.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "travel|peer|peer_durable|replicated_logger --seed N "
                 "--seconds S "
                 "--trace 0|1 --scratch DIR [--spans DIR]\n");
    return 2;
  }
  const double S = args.seconds;
  std::filesystem::create_directories(args.scratch);
  Tracer off(false);
  Tracer tracer(args.trace);
  Tally tally;
  bool correct = true;
  std::vector<Metric> metrics;
  auto metric = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  // Set-up, repeated so its time is a median (the workload says how many
  // times); only the last is measured.
  int rounds = 1;
  std::vector<double> setup_s;
  Setup setup;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) TearDown(&setup);
    setup = Setup();
    const Clock::time_point t0 = Clock::now();
    if (!DoSetup(kind, args, round, &off, &setup)) return 1;
    setup_s.push_back(MicrosBetween(t0, Clock::now()) * 1e-6);
    if (!args.trace) rounds = setup.workload->setup_rounds;
    std::printf("setup round %d: %.4f s, warm-up %zu sessions (mean latency "
                "by fifth:",
                round, setup_s.back(), setup.warmup.sessions.size());
    for (double us : FifthMeans(setup.warmup)) std::printf(" %.0f", us);
    std::printf(" us), oracle self-check: %s\n",
                setup.self_check_note.c_str());
    correct = correct && setup.self_check_ok;
  }
  const Workload& w = *setup.workload;
  tally.Add(setup.warmup);
  Generator& gen = *setup.generator;
  const uint64_t seed = args.seed;
  std::vector<const PhaseResult*> acked_phases = {&setup.warmup};

  // Untraced: kRounds rounds, each a closed-loop window then an open-loop
  // window, so both kinds sample the whole run and a slow spell on a
  // shared host hits a few windows of each rather than one metric whole.
  //  * closed loop: one session in flight per connection — capacity; rate
  //    and CPU per session are medians over the windows;
  //  * open loop: seeded Poisson arrivals at the workload's fixed rate,
  //    each session timed from its due time.
  // Traced: closed-loop windows with span recording off and on in turn,
  // for the tracing overhead, then one open-loop phase.
  std::vector<double> window_rate, window_cpu_us;
  size_t closed_ok = 0;
  std::vector<PhaseResult> closed(kRounds), opens(kRounds);
  PhaseResult open;
  std::vector<PhaseResult> traced_closed(kTracedWindows);
  std::vector<double> rates_off, rates_on;
  size_t grown_windows = 0;
  // The untraced phases draw from one client population. The traced open
  // loop has a source of its own, and the in-process loops fresh sources
  // with its seed: they replay its draw sequence and arrival schedule.
  SessionSource clients(&w, seed * 7919 + 1, "client");
  const uint64_t traced_open_seed = seed * 7919 + 2;
  SessionSource traced_open(&w, traced_open_seed, "open");
  auto open_phase = [&](int index, double seconds, SessionSource* source) {
    PhaseSpec spec;
    spec.open_loop = true;
    spec.rate = w.open_rate;
    spec.seconds = seconds;
    spec.schedule_seed = seed * 104729 + 3 + index;
    PhaseResult r = gen.Run(spec, source);
    tally.Add(r);
    const std::vector<double>& q = r.inflight_quarters;
    std::printf("open loop window %d: rate=%.0f/s samples=%zu mean in-flight "
                "by quarter [%.1f %.1f %.1f %.1f]%s\n",
                index, w.open_rate, r.sessions.size(), q.size() > 3 ? q[0] : 0,
                q.size() > 3 ? q[1] : 0, q.size() > 3 ? q[2] : 0,
                q.size() > 3 ? q[3] : 0,
                r.backlog_grew ? " — backlog kept growing" : "");
    if (r.backlog_grew) ++grown_windows;
    std::sort(r.sessions.begin(), r.sessions.end(),
              [](const SessionRecord& x, const SessionRecord& y) {
                return x.start_s < y.start_s;
              });
    return r;
  };
  if (!args.trace) {
    // Room for twice the expected open-loop sessions, so the records never
    // move: a reallocation would briefly hold two copies, and where that
    // happens would set the peak memory. Untouched room is not resident.
    open.sessions.reserve(static_cast<size_t>(2 * w.open_rate * 0.55 * S) +
                          1024);
    for (size_t k = 0; k < kRounds; ++k) {
      PhaseSpec spec;
      spec.seconds = 0.35 * S / kRounds;
      const double cpu0 = ProcessCpuSeconds();
      closed[k] = gen.Run(spec, &clients);
      const double cpu = ProcessCpuSeconds() - cpu0;
      const double ok = static_cast<double>(OkCount(closed[k]));
      closed_ok += OkCount(closed[k]);
      window_rate.push_back(ok / closed[k].elapsed_s);
      window_cpu_us.push_back(ok > 0 ? cpu * 1e6 / ok : 0);
      tally.Add(closed[k]);
      acked_phases.push_back(&closed[k]);

      opens[k] =
          open_phase(static_cast<int>(k), 0.55 * S / kRounds, &clients);
      acked_phases.push_back(&opens[k]);
      open.sessions.insert(open.sessions.end(),
                           std::make_move_iterator(opens[k].sessions.begin()),
                           std::make_move_iterator(opens[k].sessions.end()));
      opens[k].sessions = {};  // its tallies stay, for the audit
      open.bytes += opens[k].bytes;
    }
  } else {
    // Windows alternate span recording off and on, so that neither side
    // gets the less warmed-up start of the run.
    for (size_t k = 0; k < traced_closed.size(); ++k) {
      const bool traced = k % 2 == 1;
      PhaseSpec spec;
      spec.seconds = 0.24 * S / static_cast<double>(traced_closed.size());
      gen.set_tracer(traced ? &tracer : &off);
      PhaseResult& r = traced_closed[k];
      r = gen.Run(spec, &clients);
      (traced ? rates_on : rates_off).push_back(OkCount(r) / r.elapsed_s);
      tally.Add(r);
      acked_phases.push_back(&r);
    }
    gen.set_tracer(&tracer);
    open = open_phase(0, 0.25 * S, &traced_open);
    acked_phases.push_back(&open);
  }
  std::printf("client ids minted (the most sessions in flight at once): %zu",
              clients.population());
  if (args.trace) {
    std::printf(", traced open loop %zu", traced_open.population());
  }
  std::printf("\n");
  // An offered rate above capacity grows the backlog in every window; a
  // stall on a shared host grows it in the window it hits, then drains.
  const size_t open_windows = args.trace ? 1 : kRounds;
  if (2 * grown_windows > open_windows) {
    std::printf("open loop: backlog kept growing in %zu of %zu windows — the "
                "offered rate exceeds capacity; run marked failed\n",
                grown_windows, open_windows);
    correct = false;
  }
  std::vector<double> open_lat = Latencies(open);
  std::vector<double> lags;
  for (const SessionRecord& s : open.sessions) lags.push_back(s.lag_us);

  // Per-layer measurements (traced run only).
  std::vector<size_t> draws;  // pool indices of the open-loop sessions
  for (const SessionRecord& s : open.sessions) draws.push_back(s.pool_index);
  InProcessResult standalone, replicated, durable_base;
  // A workload whose own stack is not replicated still has its replication
  // and persistence layers measured: a probe group of three replicated
  // nodes configured as replicated_logger's serves the same service with
  // durability on, driven in process only.
  std::unique_ptr<Workload> probe_workload;
  std::unique_ptr<Stack> probe;
  std::map<std::string, double> probe_stats;
  AuditResult probe_audit;
  ReplayResult replay;
  JournalResult journal;
  double codec_ns = 0, db_copy_us = 0;
  std::vector<double> pings;
  if (args.trace) {
    const Workload* durable_w = &w;
    Stack* replicated_stack = setup.stack.get();
    // The replicated and durable loops run at the replicated workload's
    // rate, which a replicated group sustains on a shared 4-CPU host (at
    // peer's 3000/s the probe group queued for seconds).
    double durable_rate = w.open_rate;
    if (!w.replicated) {
      durable_rate = kProbeRate;
      probe_workload = MakeWorkload(kind, seed);
      probe_workload->durable = true;
      probe_workload->replicated = true;
      const std::string dir = setup.dir + "/probe";
      for (const char* node : {"n0", "n1", "n2"}) {
        std::filesystem::create_directories(dir + "/" + node);
      }
      probe = std::make_unique<Stack>(probe_workload.get(), dir);
      sws::core::Status started = probe->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "perfbench: probe group start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      durable_w = probe_workload.get();
      replicated_stack = probe.get();
    }
    {
      // In-process commits on n0 (with the follower quorum barrier).
      SessionSource source(durable_w, traced_open_seed, "inproc-repl");
      replicated = RunInProcessOpenLoop(replicated_stack->runtime().get(),
                                        &source, durable_rate, 0.2 * S,
                                        seed * 104729 + 3, nullptr,
                                        "replication.commit", &tracer);
      tally.Add(replicated);
    }
    // The same sessions on a standalone runtime with the given workload's
    // options (durability included) plus a hook at worker pickup.
    auto standalone_loop = [&](const Workload& ow, const std::string& name,
                               double rate, const std::string& span) {
      HookClock hook;
      const std::string dir = setup.dir + "/" + name;
      std::filesystem::create_directories(dir);
      sws::rt::RuntimeOptions options = BaseRuntimeOptions(ow, dir);
      options.before_process_hook = [&hook](const std::string& id) {
        hook.Touch(id);
      };
      sws::rt::ServiceRuntime runtime(ow.sws.get(), ow.seed_db, options);
      SessionSource source(&ow, traced_open_seed, name);
      InProcessResult r = RunInProcessOpenLoop(&runtime, &source, rate,
                                               0.2 * S, seed * 104729 + 3,
                                               &hook, span, &tracer);
      runtime.Shutdown();
      tally.Add(r);
      return r;
    };
    standalone = standalone_loop(w, "inproc", w.open_rate, "runtime.session");
    // The barrier's baseline: the replicated primary's durability without
    // the followers.
    durable_base = w.replicated
                       ? standalone
                       : standalone_loop(*durable_w, "inproc-durable",
                                         durable_rate,
                                         "runtime.durable_session");
    if (probe) {
      if (!ParseFlatJson(probe->runtime()->Stats().ToJson(), &probe_stats)) {
        std::fprintf(stderr, "perfbench: could not read probe stats\n");
        return 1;
      }
      probe->Stop();
      probe_audit = AuditDurability(*durable_w, probe->durable_dirs(), {});
      if (!probe_audit.problem.empty()) {
        std::printf("probe audit: %s\n", probe_audit.problem.c_str());
      }
      correct = correct && probe_audit.self_check_ok;
      probe.reset();
    }
    pings = PingMicros(setup.stack->port(), 200);
    codec_ns = CodecNsPerFrame(w, draws, 0.03 * S);
    replay = ReplaySws(w, draws, 0.1 * S, &tracer);
    db_copy_us = DbCopyMicros(w);
    journal = MeasureJournal(w, draws, setup.dir + "/journal", 0.08 * S,
                             &tracer);
    if (replay.output_mismatches > 0 || replay.register_mismatches > 0) {
      std::printf("sws replay: %zu output and %zu register mismatches\n",
                  replay.output_mismatches, replay.register_mismatches);
      correct = false;
    }
    if (replay.memo_disagreements > 0) {
      std::printf("sws replay: %zu sessions where replayed nodes != 1 + memo "
                  "misses\n",
                  replay.memo_disagreements);
    }
    if (!journal.ok) std::printf("persistence: journal probe failed\n");
  }

  std::map<std::string, double> stats;
  if (!ReadStats(setup, &stats)) {
    std::fprintf(stderr, "perfbench: could not read runtime stats\n");
    return 1;
  }
  const double peak_rss = PeakRssMb();

  // Clean stop, then the durability audit.
  setup.stack->Stop();
  AuditResult audit =
      AuditDurability(w, setup.stack->durable_dirs(), Acked(acked_phases));
  tally.lost_ack = audit.lost;
  if (!audit.problem.empty()) std::printf("audit: %s\n", audit.problem.c_str());
  if (w.durable) {
    std::printf("audit: %zu client ids with every session acknowledged, "
                "checked in %zu dirs: %zu sessions lost; primary inspect "
                "%.4f s; planted lost ack %s\n",
                Acked(acked_phases).size(),
                setup.stack->durable_dirs().size(),
                audit.lost, audit.primary_inspect_s,
                audit.self_check_ok ? "caught" : "NOT caught");
    correct = correct && audit.self_check_ok;
  }
  if (tally.wrong > 0 || tally.lost_ack > 0) correct = false;
  PrintTally(w.name.c_str(), tally);
  const double failed_frac =
      static_cast<double>(tally.failed()) /
      static_cast<double>(std::max<size_t>(1, tally.attempted));

  if (!args.trace) {
    std::printf("closed loop: %zu connections, %zu commits in %zu windows; "
                "window rates", kConnections, closed_ok, kRounds);
    for (double r : window_rate) std::printf(" %.1f", r);
    std::printf("/s\n");
    size_t windows50 = 0, windows99 = 0;
    const double p50 = WindowedQuantile(open, 0.5, 250, &windows50);
    const double p99 = WindowedQuantile(open, 0.99, 1000, &windows99);
    std::vector<double> all = open_lat;
    std::printf("open loop latency samples: %zu; over all p50 %.1f p99 %.1f "
                "us; median of %zu window p50s %.1f, of %zu window p99s %.1f "
                "us\n",
                open_lat.size(), Quantile(&all, 0.5), Quantile(&all, 0.99),
                windows50, p50, windows99, p99);
    std::vector<double> sorted_setup = setup_s;
    metric("setup_s", Quantile(&sorted_setup, 0.5), "s");
    metric("sessions_per_s", Quantile(&window_rate, 0.5), "1/s");
    metric("commit_p50_us", p50, "us");
    metric("cpu_us_per_session", Quantile(&window_cpu_us, 0.5), "us");
    metric("peak_rss_mb", peak_rss, "MiB");
  } else {
    auto lookup = [](const std::map<std::string, double>& m,
                     const char* key) {
      auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    auto stat = [&](const char* key) { return lookup(stats, key); };
    // Persistence and replication counters come from the probe group's
    // primary where the workload's own stack lacks that layer.
    auto pstat = [&](const char* key) {
      return lookup(w.durable ? stats : probe_stats, key);
    };
    auto rstat = [&](const char* key) {
      return lookup(w.replicated ? stats : probe_stats, key);
    };
    const double closed_sessions = std::max(1.0, stat("sessions_closed"));
    const double memo_total = stat("memo_hits") + stat("memo_misses");
    const double tcp_p50 = Quantile(&open_lat, 0.5);
    std::vector<double> rt_lat = standalone.session_us;
    std::vector<double> qw = standalone.queue_wait_us;
    std::vector<double> repl_lat = replicated.session_us;
    const double rt_p50 = Quantile(&rt_lat, 0.5);
    const double repl_p50 = Quantile(&repl_lat, 0.5);
    const double inproc_p50 = w.replicated ? repl_p50 : rt_p50;
    const double logic_us =
        replay.eval_us[0] + replay.eval_us[1] + replay.eval_us[2];
    const double appends_per_session =
        pstat("journal_appends") / std::max(1.0, pstat("sessions_closed"));
    std::vector<double> durable_lat = durable_base.session_us;
    std::vector<double> append_us = journal.append_us;
    std::vector<double> sync_us = journal.sync_us;
    const double append_p50 = Quantile(&append_us, 0.5);
    const double sync_p50 = Quantile(&sync_us, 0.5);
    const double rate_off = Quantile(&rates_off, 0.5);
    const double rate_on = Quantile(&rates_on, 0.5);
    size_t open_ok = OkCount(open);

    metric("failed_frac", failed_frac, "frac");
    metric("failed.refused", tally.refused, "count");
    metric("failed.timed_out", tally.timed_out, "count");
    metric("failed.wrong_output", tally.wrong, "count");
    metric("failed.lost_ack", tally.lost_ack, "count");
    metric("failed.errored", tally.errored, "count");
    // The tail is reported here, not end to end: on a shared host its
    // run-to-run spread exceeded any usable bound (see BENCHMARK.json).
    std::vector<double> all = open_lat;
    metric("commit_p99_us", Quantile(&all, 0.99), "us");
    metric("loadgen.lag_p99_us", Quantile(&lags, 0.99), "us");
    metric("loadgen.samples", static_cast<double>(open.sessions.size()),
           "count");
    metric("net.ping_p50_us", Quantile(&pings, 0.5), "us");
    metric("net.codec_ns_per_frame", codec_ns, "ns");
    metric("net.bytes_per_session",
           open.sessions.empty()
               ? 0
               : static_cast<double>(open.bytes) /
                     static_cast<double>(open.sessions.size()),
           "bytes");
    metric("net.self_us", tcp_p50 - inproc_p50, "us");
    metric("net.frames_rejected",
           stat("net_frames_rejected") +
               static_cast<double>(gen.frames_rejected()),
           "count");
    metric("net.bytes_shed", stat("net_bytes_shed"), "bytes");
    metric("runtime.session_p50_us", rt_p50, "us");
    metric("runtime.session_p99_us", Quantile(&rt_lat, 0.99), "us");
    metric("runtime.queue_wait_p50_us", Quantile(&qw, 0.5), "us");
    metric("runtime.queue_wait_p99_us", Quantile(&qw, 0.99), "us");
    metric("runtime.run_p99_us", stat("p99_us"), "us");
    metric("runtime.rejected", stat("rejected"), "count");
    metric("runtime.shed_low_priority", stat("shed_low_priority"), "count");
    metric("sws.run_us", replay.run_us, "us");
    metric("sws.nodes_per_session",
           (stat("sessions_closed") + memo_total) / closed_sessions, "count");
    metric("sws.memo_hit_ratio",
           memo_total > 0 ? stat("memo_hits") / memo_total : 0, "ratio");
    metric("sws.self_us", replay.run_us - logic_us, "us");
    metric("logic.fo_eval_us", replay.eval_us[2], "us");
    metric("logic.cq_eval_us", replay.eval_us[0], "us");
    metric("logic.ucq_eval_us", replay.eval_us[1], "us");
    metric("logic.fo_evals_per_session", replay.evals[2], "count");
    metric("logic.cq_evals_per_session", replay.evals[0], "count");
    metric("relational.db_copy_us", db_copy_us, "us");
    metric("persistence.append_us", append_p50, "us");
    metric("persistence.sync_p50_us", sync_p50, "us");
    metric("persistence.sync_p99_us", Quantile(&sync_us, 0.99), "us");
    metric("persistence.appends_per_session", appends_per_session, "count");
    metric("persistence.recovery_s",
           w.durable ? audit.primary_inspect_s : probe_audit.primary_inspect_s,
           "s");
    metric("persistence.storage_failures", pstat("storage_failures"),
           "count");
    metric("replication.commit_p50_us", repl_p50, "us");
    metric("replication.commit_p99_us", Quantile(&repl_lat, 0.99), "us");
    metric("replication.barrier_us", repl_p50 - Quantile(&durable_lat, 0.5),
           "us");
    metric("replication.acks", rstat("replication_acks"), "count");
    metric("replication.timeouts", rstat("replication_timeouts"), "count");
    metric("replication.follower_lag_hwm", rstat("follower_lag_hwm"),
           "count");
    metric("trace.overhead_frac", rate_on > 0 ? rate_off / rate_on - 1 : 0,
           "frac");

    // Layer self times on the blocking path of one in-process commit, as
    // means so that they add up: span self times for what the benchmark
    // saw from outside the runtime, replayed layer costs for the rest.
    std::map<std::string, std::vector<double>> self = tracer.SelfTimes();
    auto self_mean = [&self](const std::string& name) {
      return Mean(self[name]);
    };
    const double total = Mean(standalone.session_us);
    const double persist_us =
        w.durable ? appends_per_session * Mean(journal.append_us) +
                        Mean(journal.sync_us)
                  : 0;
    struct Row {
      const char* layer;
      double us;
    };
    const Row rows[] = {
        {"runtime     wake-up lag + request submits",
         self_mean("runtime.session")},
        {"runtime     delimiter queue wait",
         self_mean("runtime.session.queue_wait")},
        {"relational  seed db copy", db_copy_us},
        {"sws         core::Run self", replay.run_us - logic_us},
        {"logic       rule evaluation", logic_us},
        {"persistence appends + outcome sync", persist_us},
    };
    double explained = 0;
    std::printf("\nlayer self times on the blocking path, mean us per session "
                "(runtime.session_p50_us %.1f, mean %.1f):\n",
                rt_p50, total);
    for (const Row& row : rows) {
      std::printf("  %-36s %10.1f\n", row.layer, row.us);
      explained += row.us;
    }
    std::printf("  %-36s %10.1f\n", "residual (unexplained)",
                total - explained);
    std::printf("  %-36s %10.1f  (replication.commit mean %.1f%s)\n",
                "replication quorum barrier",
                Mean(replicated.session_us) - Mean(durable_base.session_us),
                Mean(replicated.session_us),
                w.replicated ? "" : ", probe group");
    const double inproc_mean =
        w.replicated ? Mean(replicated.session_us) : total;
    std::vector<double> tcp_ok;
    for (const SessionRecord& r : open.sessions) {
      if (r.fate == Fate::kOk) tcp_ok.push_back(r.latency_us);
    }
    std::printf("  %-36s %10.1f  (TCP commit mean %.1f, p50 %.1f)\n",
                "net         front door + wire", Mean(tcp_ok) - inproc_mean,
                Mean(tcp_ok), tcp_p50);
    std::printf("trace: %zu spans, overhead_frac %.4f (closed loop %.1f/s "
                "untraced vs %.1f/s traced), open-loop ok %zu\n",
                tracer.size(), rate_on > 0 ? rate_off / rate_on - 1 : 0,
                rate_off, rate_on, open_ok);
    std::printf("span self times (p50 us):");
    for (auto& [name, values] : self) {
      std::printf(" %s=%.1f(n=%zu)", name.c_str(), Quantile(&values, 0.5),
                  values.size());
    }
    std::printf("\n");
    const std::string trace_path =
        (args.spans.empty() ? args.scratch : args.spans) + "/spans-" +
        w.name + "-" + std::to_string(seed) + ".jsonl";
    if (tracer.WriteJsonLines(trace_path)) {
      std::printf("spans written to %s\n", trace_path.c_str());
    }
  }

  TearDown(&setup);
  PrintResult(correct, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
