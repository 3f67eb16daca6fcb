// Simulator-core throughput: a million-operation open-loop run through
// Algorithm 1 (plus centralized / TOB baseline runs), measured end-to-end
// and at the queue level, with a regression gate against the seed binary
// heap.
//
// What runs:
//   * HeavyTrafficWorkload (core/workload.h) drives --ops (default 1M)
//     register reads/writes through a 4-replica Algorithm 1 system with
//     every pool pre-sized from the workload bound.  The trace is
//     FNV-1a-hashed through write_trace and must equal the hash pinned for
//     that run size (kPinnedTraceHashes: recorded when the seed's heap,
//     std::map tables and per-message delivery loop still ran beside the
//     current core and produced the identical trace).  A run size with no
//     pinned hash runs a second time with cold pools instead, and the two
//     hashes must agree.
//   * The run is split at a warm-up point (run_until + run, which
//     produces the identical trace) and the operator-new interposer
//     (common/alloc_count.cpp, linked with COUNT_ALLOCS) counts its
//     steady-state heap allocations -- recorded as
//     throughput_allocs_steady_state, expected 0.
//   * The run records every queue push/pop via EventQueue::set_log; that
//     exact interleaving is replayed in isolation through the calendar
//     queue and through the seed binary heap (tests/seed_heap.h, the
//     verbatim seed structure over its fat 104-byte event), timing the
//     data structure alone.
//   * The same workload (at --baseline-ops, default 200k) runs through the
//     centralized and TOB baselines for the cross-algorithm picture.
//
// Latency percentiles are reported against the paper's bounds: accessors
// respond in exactly d+eps-X and pure mutators ack in eps+X under the
// default worst-case delay policy (all messages take d), so p50 == max ==
// bound is the expected shape; the centralized/TOB numbers sit at ~2d
// (the folklore bound Algorithm 1 beats).
//
// Exit status is 0 only when
//   * every run completes (every operation answered, no event-cap trip)
//     and the replica trace hashes to its pinned value,
//   * accessor/mutator worst-case latencies meet the paper's bounds, and
//   * the queue-level replay runs >= 3x faster through the calendar queue
//     than through the seed heap, with identical pop streams -- the
//     throughput-regression gate enforced by perf CI.
//
// Results merge into BENCH_perf.json under throughput_* keys (JsonReport
// preserves bench_perf's keys).
#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "checker/history.h"
#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "core/system.h"
#include "core/workload.h"
#include "harness/latency.h"
#include "seed_heap.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

using namespace linbound;
using namespace linbound::bench;

namespace {

struct RunResult {
  bool complete = false;
  double seconds = 0;
  std::size_t events = 0;
  std::size_t ops = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t allocs_steady = 0;    ///< heap allocs after warm-up (pooled)
  bool allocs_measured = false;
  std::size_t queue_high_water = 0;   ///< EventQueue peak size
  TraceStats stats;
  LatencyReport latency;

  double events_per_s() const { return seconds > 0 ? events / seconds : 0; }
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0; }
};

/// Replica trace hashes pinned per --ops value.  Both were recorded when
/// the seed shape (binary heap, std::map tables, per-message delivery,
/// cold pools) still ran beside the current core and hashed identically.
struct PinnedHash {
  std::size_t ops;
  std::uint64_t hash;
};
constexpr PinnedHash kPinnedTraceHashes[] = {
    {20'000, 0x981d1caadd612ea8ull},     // perf CI smoke run
    {1'000'000, 0xd7f17748f0fee6faull},  // the full-size run
};

const PinnedHash* pinned_hash(std::size_t ops) {
  for (const PinnedHash& pin : kPinnedTraceHashes) {
    if (pin.ops == ops) return &pin;
  }
  return nullptr;
}

HeavyTrafficOptions workload_options(std::size_t ops) {
  HeavyTrafficOptions w;
  w.clients = kN;
  w.total_ops = ops;
  // Open-loop floor above every system's worst-case response (d+eps for
  // Algorithm 1, ~2d for the baselines); prime jitter spreads arrivals
  // across ticks so bucket occupancy is irregular, not strided.
  w.min_gap = 4 * default_timing().d;
  w.jitter = 997;
  return w;
}

SystemOptions system_options(std::size_t ops) {
  SystemOptions sys;
  sys.n = kN;
  sys.timing = default_timing();
  sys.x = 0;
  // Algorithm 1 costs ~3n+2 events per mutator (broadcast + per-replica
  // holdback timers); 40x leaves generous headroom for every system here.
  sys.max_events = ops * 40 + 100'000;
  return sys;
}

/// `pooled`: pre-size every pool from the workload bound (and split the run
/// at a warm-up point to count steady-state heap allocations).
HeavyTrafficOptions shaped_workload(std::size_t ops, bool pooled) {
  HeavyTrafficOptions w = workload_options(ops);
  if (pooled) {
    // Size every pool for the whole run (pool growth is monotonic; the
    // arena holds all payloads to end-of-run anyway, so reserving the full
    // volume only front-loads memory the run would reach regardless).
    // Stock Algorithm 1 at n=4: broadcast + acks stay well under 12
    // messages and ~256 payload bytes per op.
    w.messages_per_op = 12;
    w.payload_bytes_per_op = 256;
    w.timer_slots_per_process = 1024;
  }
  return w;
}

/// One open-loop run through `SystemT`; when `log` is non-null the queue
/// records its push/pop stream into it.
template <typename SystemT>
RunResult run_system(const std::shared_ptr<const ObjectModel>& model,
                     std::size_t ops, bool pooled,
                     std::vector<std::int64_t>* log, std::size_t log_cap) {
  const SystemOptions sys = system_options(ops);
  const HeavyTrafficOptions w = shaped_workload(ops, pooled);

  SystemT system(model, sys);
  if constexpr (std::is_same_v<SystemT, ReplicaSystem>) {
    if (pooled) {
      for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
    }
  }
  HeavyTrafficWorkload workload(system.sim(), w);
  if (log) {
    log->clear();
    log->reserve(log_cap);
    system.sim().event_queue().set_log(log, log_cap);
  }
  system.sim().start();
  workload.arm();

  RunResult out;
  bool quiescent = false;
  const double t0 = now_seconds();
  if (pooled && alloc_counting_enabled()) {
    // Split run: run_until(t) + run() yields the identical trace to a
    // single run(), so the counter snapshot between the halves measures
    // the steady state of the real configuration.  ~15% of the schedule
    // is far past every pool's high-water mark (open-loop arrivals are
    // steady from the first operation).
    const Tick warmup = static_cast<Tick>(ops / static_cast<std::size_t>(kN)) *
                        (w.min_gap + w.jitter / 2) * 15 / 100;
    system.sim().run_until(warmup);
    const std::uint64_t before = heap_allocs();
    quiescent = system.sim().run();
    out.allocs_steady = heap_allocs() - before;
    out.allocs_measured = true;
  } else {
    quiescent = system.sim().run();
  }
  out.seconds = now_seconds() - t0;
  out.queue_high_water = system.sim().event_queue().high_water();

  const Trace& trace = system.sim().trace();
  out.complete = quiescent && trace.complete() &&
                 trace.ops.size() == ops && workload.scheduled() == ops;
  out.events = system.sim().events_processed();
  out.ops = trace.ops.size();
  out.trace_hash = hash_trace(trace);
  out.stats = trace.stats;
  out.latency.absorb(*model, trace);
  return out;
}

/// Replay a recorded push/pop interleaving through a bare queue (the
/// calendar EventQueue with SimEvent, or the seed heap with its FatEvent):
/// the queue-level timing, free of process logic.  Returns seconds; sinks
/// the popped (time, priority, seq) stream into `sink` so the work cannot
/// be optimized away (and so the two queues' pop streams can be compared).
template <typename Queue, typename Event>
double replay_log(const std::vector<std::int64_t>& log, std::uint64_t* sink) {
  Queue queue;
  queue.reserve(4096);
  std::uint64_t acc = 14695981039346656037ull;
  const double t0 = now_seconds();
  for (const std::int64_t entry : log) {
    if (entry == EventQueue::kPopSentinel) {
      if (queue.empty()) continue;  // guard: log truncated mid-stream
      const Event ev = queue.pop();
      acc = (acc ^ static_cast<std::uint64_t>(ev.time)) * 1099511628211ull;
      acc = (acc ^ static_cast<std::uint64_t>(ev.priority)) * 1099511628211ull;
      acc = (acc ^ ev.seq) * 1099511628211ull;
    } else {
      Event ev;
      ev.kind = EventKind::kTimer;  // POD kind: pushing allocates nothing
      queue.push_typed(entry >> 1, static_cast<EventPriority>(entry & 1), ev);
    }
  }
  const double elapsed = now_seconds() - t0;
  *sink = acc;
  return elapsed;
}

/// The `--checked` mode: the fast-shape million-op run again, this time
/// with a StreamingChecker tapping the simulator's invoke/response hooks --
/// the full history is verified linearizable *online*, during the run, with
/// resident checker state bounded by the open window instead of the
/// history.  Everything below is measured against the unchecked fast run:
///   * the trace must stay byte-identical (the tap is observation-only),
///   * the online verdict + witness must equal the offline segmented
///     checker's at jobs 1/2/4 (byte-compared), and
///   * checker memory (max_resident_states) must stay structurally bounded:
///     < ops/100, enforced on every box (no thread-count waiver -- it is a
///     memory property, not a wall-clock one).
/// The checked/unchecked events-per-second ratio is the overhead price; its
/// >= 1/3 gate is wall-clock and follows the usual thread waiver.
struct CheckedRun {
  bool complete = false;
  bool tap_invisible = false;   ///< trace hash == unchecked run's
  bool identical = false;       ///< verdict+witness == offline at jobs 1/2/4
  bool memory_ok = false;
  double run_s = 0;             ///< simulate + pipelined drain
  double finalize_s = 0;        ///< final-window search + witness assembly
  std::size_t events = 0;
  CheckResult live;
  std::size_t max_window = 0;
  std::size_t segments_retired = 0;
  std::size_t offline_resident = 0;  ///< offline jobs=1 memo population

  double total_s() const { return run_s + finalize_s; }
  double events_per_s() const {
    return total_s() > 0 ? events / total_s() : 0;
  }
};

CheckedRun run_checked(const std::shared_ptr<const ObjectModel>& model,
                       std::size_t ops, int checker_jobs,
                       std::uint64_t unchecked_hash) {
  ReplicaSystem system(model, system_options(ops));
  for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
  HeavyTrafficWorkload workload(system.sim(), shaped_workload(ops, true));

  StreamingCheckOptions so;
  so.jobs = checker_jobs;
  so.ring_capacity = 8192;
  StreamingChecker checker(*model, so);
  checker.attach(system.sim());

  system.sim().start();
  workload.arm();

  CheckedRun out;
  const double t0 = now_seconds();
  const bool quiescent = system.sim().run();
  out.run_s = now_seconds() - t0;
  out.live = checker.finalize();
  out.finalize_s = now_seconds() - t0 - out.run_s;

  const Trace& trace = system.sim().trace();
  out.complete = quiescent && trace.complete() && trace.ops.size() == ops &&
                 checker.ops_seen() == ops;
  out.events = system.sim().events_processed();
  out.max_window = checker.max_window_ops();
  out.segments_retired = checker.segments_retired();
  out.tap_invisible = hash_trace(trace) == unchecked_hash;
  out.memory_ok = out.live.max_resident_states < ops / 100;

  // Offline reference: same trace through the segmented checker at jobs
  // 1/2/4; verdict and witness must be byte-identical to the online run.
  const auto [history, pending] = history_with_pending(trace);
  out.identical = true;
  for (const int jobs : {1, 2, 4}) {
    CheckOptions co;
    co.jobs = jobs;
    const CheckResult off =
        check_linearizable_with_pending(*model, history, pending, co);
    out.identical = out.identical && off.ok == out.live.ok &&
                    off.witness == out.live.witness;
    if (jobs == 1) out.offline_resident = off.max_resident_states;
  }
  return out;
}

void print_class_latency(const char* label, const LatencyReport& report,
                         OpClass cls, Tick bound) {
  auto it = report.by_class.find(cls);
  if (it == report.by_class.end()) {
    std::printf("  %-10s (no samples)\n", label);
    return;
  }
  const LatencySummary& s = it->second;
  std::printf("  %-10s p50=%lld p95=%lld p99=%lld max=%lld  (bound %lld: %s)\n",
              label, static_cast<long long>(s.percentile(50)),
              static_cast<long long>(s.percentile(95)),
              static_cast<long long>(s.percentile(99)),
              static_cast<long long>(s.max), static_cast<long long>(bound),
              s.max <= bound ? "met" : "EXCEEDED");
}

Tick class_max(const LatencyReport& report, OpClass cls) {
  auto it = report.by_class.find(cls);
  return it == report.by_class.end() ? kNoTime : it->second.max;
}

Tick class_pct(const LatencyReport& report, OpClass cls, double p) {
  auto it = report.by_class.find(cls);
  return it == report.by_class.end() ? kNoTime : it->second.percentile(p);
}

}  // namespace

int main(int argc, char** argv) {
  print_header("bench_throughput: million-op open-loop simulator throughput");

  const std::size_t ops = parse_size(argc, argv, "--ops", 1'000'000);
  const std::size_t baseline_ops =
      parse_size(argc, argv, "--baseline-ops", 200'000);
  const std::size_t log_cap = parse_size(argc, argv, "--log-cap", 8'000'000);
  const SystemTiming timing = default_timing();
  const Tick aop_bound = timing.d + timing.eps;  // d+eps-X with X=0
  const Tick mop_bound = timing.eps;             // eps+X with X=0

  auto model = std::make_shared<RegisterModel>();

  // --- 1. Algorithm 1, tuned fast shape, with queue log -------------------
  std::printf("replica run: %zu ops, n=%d, d=%lld u=%lld eps=%lld, X=0\n", ops,
              kN, static_cast<long long>(timing.d),
              static_cast<long long>(timing.u),
              static_cast<long long>(timing.eps));
  std::vector<std::int64_t> queue_log;
  const RunResult calendar = run_system<ReplicaSystem>(
      model, ops, /*pooled=*/true, &queue_log, log_cap);
  std::printf(
      "fast:      %.3fs, %zu events (%.0f events/s, %.0f ops/s)%s\n",
      calendar.seconds, calendar.events, calendar.events_per_s(),
      calendar.ops_per_s(), calendar.complete ? "" : "  [INCOMPLETE]");
  std::printf(
      "timers:    %llu set, %llu cancelled, %llu purged at dispatch\n",
      static_cast<unsigned long long>(calendar.stats.timers_set),
      static_cast<unsigned long long>(calendar.stats.timers_cancelled),
      static_cast<unsigned long long>(calendar.stats.timers_purged));
  const double batch_mean =
      calendar.stats.deliver_batches > 0
          ? static_cast<double>(calendar.stats.batched_messages) /
                static_cast<double>(calendar.stats.deliver_batches)
          : 0.0;
  if (calendar.allocs_measured) {
    std::printf(
        "pools:     %llu steady-state heap allocs, queue high water %zu, "
        "mean delivery batch %.2f\n",
        static_cast<unsigned long long>(calendar.allocs_steady),
        calendar.queue_high_water, batch_mean);
  } else {
    std::printf(
        "pools:     steady-state allocs not measured (link linbound_alloccount)"
        "; queue high water %zu, mean delivery batch %.2f\n",
        calendar.queue_high_water, batch_mean);
  }

  // --- 2. Trace identity: the pinned hash for this run size, or a second,
  //        cold-pool run where none is pinned -------------------------------
  const PinnedHash* pin = pinned_hash(ops);
  std::uint64_t reference_hash = 0;
  if (pin) {
    reference_hash = pin->hash;
  } else {
    const RunResult cold = run_system<ReplicaSystem>(
        model, ops, /*pooled=*/false, nullptr, 0);
    reference_hash = cold.complete ? cold.trace_hash : ~calendar.trace_hash;
  }
  const bool traces_identical = calendar.trace_hash == reference_hash;
  std::printf("traces:    %s (fnv1a %016llx, %s %016llx)\n",
              traces_identical ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(calendar.trace_hash),
              pin ? "pinned" : "cold-pool run",
              static_cast<unsigned long long>(reference_hash));

  // --- 3. Queue-level replay of the recorded interleaving -----------------
  std::uint64_t sink_cal = 0, sink_heap = 0;
  const double replay_cal_s =
      replay_log<EventQueue, SimEvent>(queue_log, &sink_cal);
  const double replay_heap_s =
      replay_log<seed::SeedHeap, seed::FatEvent>(queue_log, &sink_heap);
  const bool replay_identical = sink_cal == sink_heap;
  const double replay_speedup =
      replay_cal_s > 0 ? replay_heap_s / replay_cal_s : 0;
  std::printf(
      "replay:    %zu log entries; calendar %.3fs, seed heap %.3fs (%.2fx, "
      "pops %s)\n",
      queue_log.size(), replay_cal_s, replay_heap_s, replay_speedup,
      replay_identical ? "identical" : "DIVERGED");

  // --- 4. Latency percentiles vs the paper's bounds ------------------------
  std::printf("\nlatency (replica, %zu ops):\n", ops);
  print_class_latency("accessor", calendar.latency, OpClass::kPureAccessor,
                      aop_bound);
  print_class_latency("mutator", calendar.latency, OpClass::kPureMutator,
                      mop_bound);
  const bool bounds_met =
      class_max(calendar.latency, OpClass::kPureAccessor) <= aop_bound &&
      class_max(calendar.latency, OpClass::kPureMutator) <= mop_bound;

  // --- 5. Centralized / TOB baselines (folklore ~2d latency) ---------------
  // No replica pools here; latency picture only.
  const RunResult central = run_system<CentralizedSystem>(
      model, baseline_ops, /*pooled=*/false, nullptr, 0);
  const RunResult tob = run_system<TobSystem>(
      model, baseline_ops, /*pooled=*/false, nullptr, 0);
  std::printf("\nbaselines (%zu ops each, vs folklore 2d = %lld):\n",
              baseline_ops, static_cast<long long>(2 * timing.d));
  std::printf("  centralized: %.3fs (%.0f events/s), worst latency %lld%s\n",
              central.seconds, central.events_per_s(),
              static_cast<long long>(
                  class_max(central.latency, OpClass::kPureAccessor)),
              central.complete ? "" : "  [INCOMPLETE]");
  std::printf("  tob:         %.3fs (%.0f events/s), worst latency %lld%s\n",
              tob.seconds, tob.events_per_s(),
              static_cast<long long>(
                  class_max(tob.latency, OpClass::kPureAccessor)),
              tob.complete ? "" : "  [INCOMPLETE]");

  // --- 6. Online (streaming) linearizability check at full scale ----------
  const bool checked_mode = has_flag(argc, argv, "--checked");
  const int checker_jobs = 2;  // one producer (the sim), one checker worker
  CheckedRun checked;
  bool checked_speedup_ok = true;
  double checked_speedup = 0;
  if (checked_mode) {
    std::printf("\nchecked run: streaming checker tapped in, jobs=%d\n",
                checker_jobs);
    checked = run_checked(model, ops, checker_jobs, calendar.trace_hash);
    checked_speedup = calendar.events_per_s() > 0
                          ? checked.events_per_s() / calendar.events_per_s()
                          : 0;
    std::printf(
        "checked:   %.3fs run + %.3fs finalize (%.0f events/s, %.2fx of "
        "unchecked)%s\n",
        checked.run_s, checked.finalize_s, checked.events_per_s(),
        checked_speedup, checked.complete ? "" : "  [INCOMPLETE]");
    std::printf(
        "verdict:   %s, %llu segments (%zu retired online), witness %s "
        "offline at jobs 1/2/4\n",
        checked.live.ok ? "linearizable" : "VIOLATION",
        static_cast<unsigned long long>(checked.live.segments),
        checked.segments_retired,
        checked.identical ? "identical to" : "DIVERGED from");
    std::printf(
        "memory:    %zu resident states at peak (offline memo: %zu), window "
        "high water %zu ops -- %s\n",
        checked.live.max_resident_states, checked.offline_resident,
        checked.max_window,
        checked.memory_ok ? "bounded" : "UNBOUNDED (>= ops/100)");
    std::printf("trace:     %s\n",
                checked.tap_invisible ? "byte-identical to unchecked run"
                                      : "PERTURBED BY THE TAP");
    // The overhead ratio is wall-clock, so it follows the thread waiver;
    // verdict/witness identity, tap invisibility and the memory bound are
    // structural and always gate.
    checked_speedup_ok =
        !bench::speedup_gates_enforced() || checked_speedup >= 1.0 / 3.0;
  }

  // --- Verdict + JSON ------------------------------------------------------
  // The gate is the queue-level replay against the verbatim seed heap: the
  // calendar's SimEvent is one cache line against the heap's 104-byte fat
  // event, so the ratio prices the bucketing and the data layout together.
  //
  // Drift policy: every throughput number cited in prose (EXPERIMENTS.md,
  // README.md, ROADMAP.md) must be copied from the committed
  // BENCH_perf.json, and a PR that regenerates BENCH_perf.json must update
  // those citations in the same change.  tools/check_bench_schema.sh keeps
  // the JSON itself shaped; the prose follows the JSON, never the reverse.
  const double gate_speedup = replay_speedup;
  // Identity and latency bounds always gate; the wall-clock ratio only
  // does on a box that can measure one (bench_common.h).
  const bool speedup_enforced = bench::speedup_gates_enforced();
  const bool speedup_ok = !speedup_enforced || gate_speedup >= 3.0;
  if (speedup_enforced) {
    std::printf("\nregression gate: replay %.2fx (need >= 3x vs the seed "
                "heap)\n",
                gate_speedup);
  } else {
    std::printf("\nregression gate waived (%u hardware threads < 4): "
                "replay %.2fx recorded, not asserted\n",
                bench::hardware_threads(), gate_speedup);
  }
  const bool ok = calendar.complete && central.complete &&
                  tob.complete && traces_identical && replay_identical &&
                  bounds_met && speedup_ok &&
                  (!checked_mode ||
                   (checked.complete && checked.live.ok && checked.identical &&
                    checked.tap_invisible && checked.memory_ok &&
                    checked_speedup_ok));

  JsonReport json(parse_flag(argc, argv, "--json", "BENCH_perf.json"));
  json.set("throughput_ops", ops);
  json.set("throughput_baseline_ops", baseline_ops);
  json.set("throughput_replica_events", calendar.events);
  json.set("throughput_calendar_s", calendar.seconds);
  json.set("throughput_calendar_events_per_s", calendar.events_per_s());
  json.set("throughput_calendar_ops_per_s", calendar.ops_per_s());
  json.set("throughput_replay_entries", queue_log.size());
  json.set("throughput_replay_calendar_s", replay_cal_s);
  json.set("throughput_replay_heap_s", replay_heap_s);
  json.set("throughput_replay_speedup", replay_speedup);
  json.set("throughput_gate_speedup", gate_speedup);
  // Every *_speedup key carries a *_speedup_threads sibling recording the
  // hardware parallelism behind the number (tools/check_bench_schema.sh).
  json.set("throughput_replay_speedup_threads", bench::hardware_threads());
  json.set("throughput_gate_speedup_threads", bench::hardware_threads());
  json.set("throughput_speedup_gate_enforced", speedup_enforced);
  json.set("throughput_allocs_steady_state", calendar.allocs_steady);
  json.set("throughput_allocs_measured", calendar.allocs_measured);
  json.set("throughput_pool_high_water", calendar.queue_high_water);
  json.set("throughput_batch_mean_size", batch_mean);
  json.set("throughput_deliver_batches",
           static_cast<std::uint64_t>(calendar.stats.deliver_batches));
  json.set("throughput_traces_identical", traces_identical);
  json.set("throughput_replay_identical", replay_identical);
  json.set("throughput_timers_set",
           static_cast<std::uint64_t>(calendar.stats.timers_set));
  json.set("throughput_timers_cancelled",
           static_cast<std::uint64_t>(calendar.stats.timers_cancelled));
  json.set("throughput_timers_purged",
           static_cast<std::uint64_t>(calendar.stats.timers_purged));
  json.set("throughput_aop_bound", static_cast<long long>(aop_bound));
  json.set("throughput_aop_p50", static_cast<long long>(class_pct(
                                     calendar.latency, OpClass::kPureAccessor, 50)));
  json.set("throughput_aop_p99", static_cast<long long>(class_pct(
                                     calendar.latency, OpClass::kPureAccessor, 99)));
  json.set("throughput_aop_max", static_cast<long long>(class_max(
                                     calendar.latency, OpClass::kPureAccessor)));
  json.set("throughput_mop_bound", static_cast<long long>(mop_bound));
  json.set("throughput_mop_p50", static_cast<long long>(class_pct(
                                     calendar.latency, OpClass::kPureMutator, 50)));
  json.set("throughput_mop_p99", static_cast<long long>(class_pct(
                                     calendar.latency, OpClass::kPureMutator, 99)));
  json.set("throughput_mop_max", static_cast<long long>(class_max(
                                     calendar.latency, OpClass::kPureMutator)));
  json.set("throughput_bounds_met", bounds_met);
  json.set("throughput_centralized_events_per_s", central.events_per_s());
  json.set("throughput_centralized_max_latency",
           static_cast<long long>(
               class_max(central.latency, OpClass::kPureAccessor)));
  json.set("throughput_tob_events_per_s", tob.events_per_s());
  json.set("throughput_tob_max_latency",
           static_cast<long long>(
               class_max(tob.latency, OpClass::kPureAccessor)));
  if (checked_mode) {
    json.set("streaming_checker_ops", ops);
    json.set("streaming_checker_jobs", checker_jobs);
    json.set("streaming_checker_ok", checked.live.ok);
    json.set("streaming_checker_segments",
             static_cast<std::uint64_t>(checked.live.segments));
    json.set("streaming_checker_states",
             static_cast<std::uint64_t>(checked.live.states_explored));
    json.set("streaming_checker_states_per_s",
             checked.total_s() > 0 ? checked.live.states_explored /
                                         checked.total_s()
                                   : 0.0);
    json.set("streaming_checker_run_s", checked.run_s);
    json.set("streaming_checker_finalize_s", checked.finalize_s);
    json.set("streaming_checker_events_per_s", checked.events_per_s());
    json.set("streaming_checker_speedup", checked_speedup);
    json.set("streaming_checker_speedup_threads", bench::hardware_threads());
    json.set("streaming_checker_speedup_gate_enforced",
             bench::speedup_gates_enforced());
    json.set("streaming_checker_max_resident_states",
             static_cast<std::uint64_t>(checked.live.max_resident_states));
    json.set("streaming_checker_offline_resident_states",
             static_cast<std::uint64_t>(checked.offline_resident));
    json.set("streaming_checker_max_window_ops",
             static_cast<std::uint64_t>(checked.max_window));
    json.set("streaming_checker_memory_ok", checked.memory_ok);
    json.set("streaming_checker_identical", checked.identical);
    json.set("streaming_checker_tap_invisible", checked.tap_invisible);
  }
  std::printf(json.write() ? "wrote %s\n" : "FAILED writing %s\n",
              json.path().c_str());

  return finish(ok);
}
