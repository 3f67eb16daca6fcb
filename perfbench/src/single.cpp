// single_1m: one 4-replica Algorithm 1 register group under a 1M-op
// open-loop HeavyTrafficWorkload (1:1 reads/writes from 4 clients), with
// pools pre-sized from the workload bound.  Each iteration runs a
// simulate-only pass and a simulate + online StreamingChecker pass (jobs=2).
#include <cstdio>
#include <memory>

#include "checker/history.h"
#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "core/system.h"
#include "core/workload.h"
#include "sim/trace_io.h"
#include "types/register_type.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace linbound;

constexpr int kN = 4;
constexpr std::size_t kFullOps = 1'000'000;
constexpr int kCheckerJobs = 2;  // the simulator plus one checker worker
constexpr int kSetupRepeats = 3;

std::size_t op_count(const Options& o) { return scaled(kFullOps, o.scale, 2000); }

SystemOptions system_options(std::size_t ops) {
  SystemOptions sys;
  sys.n = kN;
  sys.timing = default_timing();
  sys.x = 0;
  sys.max_events = ops * 40 + 100'000;
  return sys;
}

HeavyTrafficOptions workload_options(std::size_t ops, std::uint64_t seed) {
  HeavyTrafficOptions w;
  w.clients = kN;
  w.total_ops = ops;
  w.seed = seed;
  // Open-loop floor above the worst-case response (d + eps); prime jitter
  // spreads arrivals so calendar buckets fill irregularly.
  w.min_gap = 4 * default_timing().d;
  w.jitter = 997;
  // Pools sized for the whole run, so the steady state allocates nothing.
  w.messages_per_op = 12;
  w.payload_bytes_per_op = 256;
  w.timer_slots_per_process = 1024;
  w.events_per_tick = 16;
  return w;
}

/// One constructed 4-replica system with its workload.
struct Rig {
  Rig(const std::shared_ptr<const ObjectModel>& model, std::size_t ops,
      std::uint64_t seed)
      : ops(ops),
        system(model, system_options(ops)),
        workload(system.sim(), workload_options(ops, seed)) {
    for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
  }

  Simulator& sim() { return system.sim(); }
  const Trace& trace() { return system.sim().trace(); }

  std::size_t answered() {
    std::size_t n = 0;
    for (const OperationRecord& rec : trace().ops) n += rec.completed();
    return n;
  }
  bool complete(bool quiescent) {
    return quiescent && trace().complete() && trace().ops.size() == ops &&
           workload.scheduled() == ops;
  }

  std::size_t ops;
  ReplicaSystem system;
  HeavyTrafficWorkload workload;
};

/// Builds a rig, attaches `checker` if given, and arms it.  System + pools +
/// arm() is the set-up the benchmark times, into `setup_s` if given; the
/// attach is not timed.
std::unique_ptr<Rig> build(const std::shared_ptr<const ObjectModel>& model,
                           std::size_t ops, std::uint64_t seed,
                           StreamingChecker* checker,
                           double* setup_s = nullptr) {
  double t0 = now_s();
  auto rig = std::make_unique<Rig>(model, ops, seed);
  double setup = now_s() - t0;
  if (checker) checker->attach(rig->sim());
  t0 = now_s();
  rig->sim().start();
  rig->workload.arm();
  setup += now_s() - t0;
  if (setup_s) *setup_s = setup;
  return rig;
}

/// Builds, arms and discards kSetupRepeats rigs back to back, appending each
/// set-up time: repeated builds see the same allocator state, so their
/// median is steadier than the set-up of a pass that follows a run.
void measure_setup(const std::shared_ptr<const ObjectModel>& model,
                   std::size_t ops, std::uint64_t seed,
                   std::vector<double>& setup) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    double s = 0;
    build(model, ops, seed, nullptr, &s);
    setup.push_back(s);
  }
}

StreamingCheckOptions checker_options(int jobs) {
  StreamingCheckOptions so;
  so.jobs = jobs;
  so.ring_capacity = 8192;
  return so;
}

/// Replays a recorded push/pop interleaving through a bare calendar queue.
std::uint64_t replay_queue_log(const std::vector<std::int64_t>& log) {
  EventQueue queue;
  queue.reserve(4096);
  std::uint64_t acc = 14695981039346656037ull;
  for (const std::int64_t entry : log) {
    if (entry == EventQueue::kPopSentinel) {
      if (queue.empty()) continue;
      const SimEvent ev = queue.pop();
      acc = (acc ^ static_cast<std::uint64_t>(ev.time)) * 1099511628211ull;
    } else {
      SimEvent ev;
      ev.kind = EventKind::kTimer;
      queue.push_typed(entry >> 1, static_cast<EventPriority>(entry & 1), ev);
    }
  }
  return acc;
}

}  // namespace

void single_e2e(const Options& o, Result& r) {
  const std::size_t ops = op_count(o);
  const auto model = std::make_shared<RegisterModel>();
  const Tick aop_bound = default_timing().d + default_timing().eps;
  const Tick mop_bound = default_timing().eps;
  std::printf("single_1m: %zu ops, n=%d, d=1000 u=400 eps=300 X=0, checker "
              "jobs=%d\n", ops, kN, kCheckerJobs);

  std::vector<double> setup, plain, verified;
  std::uint64_t plain_hash = 0;
  bool passes_complete = true;
  const double deadline = now_s() + o.seconds;
  for (int iter = 0;; ++iter) {
    measure_setup(model, ops, o.seed, setup);
    {
      const auto rig = build(model, ops, o.seed, nullptr);
      const double t0 = now_s();
      const bool quiescent = rig->sim().run();
      plain.push_back(now_s() - t0);
      passes_complete = passes_complete && rig->complete(quiescent);
      r.tally(ops, ops - rig->answered());
      if (iter == 0) {
        plain_hash = hash_trace(rig->trace());
        LatencyReport latency;
        latency.absorb(*model, rig->trace());
        r.check(report_latency("aop", latency, OpClass::kPureAccessor,
                               aop_bound),
                "accessor latency within d+eps-X");
        r.check(report_latency("mop", latency, OpClass::kPureMutator,
                               mop_bound),
                "mutator latency within eps+X");
      }
    }
    StreamingChecker checker(*model, checker_options(kCheckerJobs));
    const auto rig = build(model, ops, o.seed, &checker);
    const double t0 = now_s();
    const bool quiescent = rig->sim().run();
    const CheckResult live = checker.finalize();
    verified.push_back(now_s() - t0);
    passes_complete = passes_complete && rig->complete(quiescent) &&
                      checker.ops_seen() == ops;
    r.tally(ops, ops - rig->answered() + (live.ok ? 0 : ops));
    r.check(live.ok, "streaming checker: linearizable");
    if (now_s() < deadline) continue;

    // Checks on the last checked pass, outside the timed region.
    r.check(hash_trace(rig->trace()) == plain_hash,
            "checked-pass trace hash equals the unchecked pass");
    const auto [history, pending] = history_with_pending(rig->trace());
    CheckOptions co;
    co.jobs = kJobs;
    const CheckResult offline =
        check_linearizable_with_pending(*model, history, pending, co);
    r.check(offline.ok == live.ok && offline.witness == live.witness,
            "streaming verdict and witness equal the offline checker's");
    std::printf("passes: %zu unchecked + %zu checked; %zu segments, peak %zu "
                "resident states\n", plain.size(), verified.size(),
                live.segments, live.max_resident_states);
    break;
  }
  r.check(passes_complete, "every op answered in every pass");
  r.check(r.failed() == 0, "no failed ops");

  r.set("setup_s", summarize("setup_s", setup), "s");
  r.set("ops_per_s", ops / summarize("plain_pass_s", plain), "1/s");
  r.set("verified_ops_per_s", ops / summarize("verified_pass_s", verified),
        "1/s");
}

double single_layers(const Options& o, Result& r, Spans& spans) {
  const std::size_t ops = op_count(o);
  const auto model = std::make_shared<RegisterModel>();
  Spans::Scope root(spans, "single_1m");

  // A warm-up pass, then the untraced simulate-only pass: the reference for
  // the tracing overhead.  A process's first pass also pays for fresh memory.
  build(model, ops, o.seed, nullptr)->sim().run();
  double plain = 0;
  std::size_t events = 0;
  {
    std::vector<double> setup;
    {
      Spans::Scope span(spans, "core.setup");
      measure_setup(model, ops, o.seed, setup);
    }
    r.set("core.setup_s", median(setup), "s");
    const auto rig = build(model, ops, o.seed, nullptr);
    {
      Spans::Scope span(spans, "sim.run");
      rig->sim().run();
      plain = span.close();
    }
    events = rig->sim().events_processed();
    const Trace& trace = rig->trace();
    const TraceStats& st = trace.stats;
    r.set("sim.run_s", plain, "s");
    r.set("sim.events_per_op", static_cast<double>(events) / ops, "count");
    r.set("core.messages_per_op",
          static_cast<double>(trace.messages.size()) / ops, "count");
    r.set("core.timers_per_op", static_cast<double>(st.timers_set) / ops,
          "count");
    r.set("sim.batch_mean_size",
          st.deliver_batches ? static_cast<double>(st.batched_messages) /
                                   st.deliver_batches
                             : 0.0,
          "count");
    Spans::Scope span(spans, "sim.trace_hash");
    const std::uint64_t hash = hash_trace(trace);
    r.set("sim.trace_hash_s", span.close(), "s");
    std::printf("single_1m trace hash %016llx\n",
                static_cast<unsigned long long>(hash));
  }

  // Traced pass: queue log on, run split at a warm-up point so the
  // allocation counter sees the steady state alone.
  std::vector<std::int64_t> log;
  double traced = 0;
  {
    const std::size_t log_cap = 2 * events + 1024;
    log.reserve(log_cap);
    const auto rig = build(model, ops, o.seed, nullptr);
    rig->sim().event_queue().set_log(&log, log_cap);
    const HeavyTrafficOptions w = workload_options(ops, o.seed);
    const Tick warmup = static_cast<Tick>(ops / kN) *
                        (w.min_gap + w.jitter / 2) * 15 / 100;
    Spans::Scope span(spans, "sim.run_traced");
    rig->sim().run_until(warmup);
    const std::uint64_t before = heap_allocs();
    rig->sim().run();
    const std::uint64_t allocs = heap_allocs() - before;
    traced = span.close();
    r.set("sim.allocs_steady", static_cast<double>(allocs), "count");
    r.set("sim.queue_high_water",
          static_cast<double>(rig->sim().event_queue().high_water()), "count");
  }
  {
    Spans::Scope span(spans, "sim.queue_replay");
    const std::uint64_t sink = replay_queue_log(log);
    const double replay = span.close();
    r.set("sim.queue_replay_s", replay, "s");
    r.set("sim.queue_ops", static_cast<double>(log.size()), "count");
    r.set("core.handlers_est_s", plain - replay, "s");
    std::printf("queue replay sink %016llx\n",
                static_cast<unsigned long long>(sink));
  }
  log = {};

  // Checked pass, then the offline checkers on the same trace.
  StreamingChecker checker(*model, checker_options(kCheckerJobs));
  const auto rig = build(model, ops, o.seed, &checker);
  CheckResult live;
  {
    Spans::Scope span(spans, "checker.checked_run");
    rig->sim().run();
    r.set("checker.tap_s", span.close() - plain, "s");
  }
  {
    Spans::Scope span(spans, "checker.finalize");
    live = checker.finalize();
    r.set("checker.finalize_s", span.close(), "s");
  }
  r.tally(ops, ops - rig->answered());
  r.check(live.ok, "single_1m traced: streaming checker linearizable");
  r.set("checker.segments", static_cast<double>(live.segments), "count");
  r.set("checker.states_explored", static_cast<double>(live.states_explored),
        "count");
  r.set("checker.max_resident_states",
        static_cast<double>(live.max_resident_states), "count");
  r.set("checker.max_window_ops",
        static_cast<double>(checker.max_window_ops()), "count");
  {
    Spans::Scope span(spans, "checker.stream_replay");
    const CheckResult replay =
        streaming_check_trace(*model, rig->trace(), checker_options(1));
    r.set("checker.stream_replay_s", span.close(), "s");
    r.check(replay.ok == live.ok && replay.witness == live.witness,
            "single_1m traced: replayed streaming verdict equals the live one");
  }
  Spans::Scope build_span(spans, "checker.history_build");
  const auto [history, pending] = history_with_pending(rig->trace());
  r.set("checker.history_build_s", build_span.close(), "s");
  Spans::Scope offline_span(spans, "checker.offline");
  CheckOptions co;
  co.jobs = 1;
  const CheckResult offline =
      check_linearizable_with_pending(*model, history, pending, co);
  r.set("checker.offline_s", offline_span.close(), "s");
  r.check(offline.ok == live.ok && offline.witness == live.witness,
          "single_1m traced: offline verdict and witness equal the streaming "
          "checker's");
  r.set("checker.offline_memo_hit_rate", offline.memo_hit_rate(), "ratio");
  r.set("checker.offline_memo_visits",
        static_cast<double>(offline.states_explored + offline.memo_hits),
        "count");
  return traced / plain - 1;
}

}  // namespace perfbench
