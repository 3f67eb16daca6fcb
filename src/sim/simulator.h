// The discrete-event simulator: the paper's three-layer system in one box.
//
//   application layer  -- invoke_at / response hooks / scripted clients
//   object layer       -- Process subclasses (Algorithm 1, baselines, ...)
//   message layer      -- DelayPolicy-driven delivery, recorded in the Trace
//
// The simulator is deterministic: with the same configuration, processes and
// invocation schedule, two runs produce identical traces.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "sim/arena.h"
#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/fault_injection.h"
#include "sim/process.h"
#include "sim/trace.h"

namespace linbound {

struct SimConfig {
  SystemTiming timing;
  /// Clock offsets c_i (local = real + c_i); resized with zeros to the
  /// number of processes.  Pairwise |c_i - c_j| <= eps for admissible runs;
  /// shift experiments may set inadmissible offsets on purpose.
  std::vector<Tick> clock_offsets;
  /// Clock drift rates in parts-per-million (Chapter VII future work):
  /// local_i(t) = c_i + t + floor(t * drift_ppm_i / 1e6).  The paper's base
  /// model has no drift (all zero, the default); the drift-exploration
  /// bench sets these to probe Algorithm 1 beyond the model.
  std::vector<std::int64_t> clock_drift_ppm;
  /// Delay policy; defaults to FixedDelayPolicy(timing.d).
  std::shared_ptr<DelayPolicy> delays;
  /// Fault policy (drop / duplicate / delay-spike / stall injection).
  /// Default: none -- the send path is exactly the paper's reliable layer
  /// and runs are byte-identical to the pre-fault simulator.
  std::shared_ptr<FaultPolicy> faults;
  /// Hard cap on processed events (runaway protection for broken
  /// algorithms under test).
  std::size_t max_events = 10'000'000;
};

/// Result of one bounded stepping call (Simulator::run_window).
enum class WindowOutcome {
  kDrained,  ///< queue empty: the shard is quiescent (no more local events)
  kHorizon,  ///< next event lies at or past the horizon; window complete
  kBudget,   ///< the per-simulator event budget tripped mid-window
};

class Simulator {
 public:
  explicit Simulator(SimConfig config);

  /// Add a process; processes get ids 0, 1, ... in insertion order.
  /// All processes must be added before start().
  ProcessId add_process(std::unique_ptr<Process> proc);

  int process_count() const { return static_cast<int>(procs_.size()); }
  Process& process(ProcessId pid) { return *procs_.at(static_cast<std::size_t>(pid)); }
  Tick now() const { return now_; }
  const SimConfig& config() const { return config_; }

  /// Schedule an operation invocation at real time `t` on process `pid`.
  /// Returns the operation token (also the index into trace().ops).
  std::int64_t invoke_at(Tick t, ProcessId pid, Operation op);

  /// Schedule an arbitrary callback at real time `t` (scenario glue:
  /// reactive invocations, mid-run probes).
  void call_at(Tick t, std::function<void()> fn);

  /// Crash process `pid` at real time `t` (Chapter VII future work: the
  /// paper's base model is failure-free).  From that moment the process
  /// sends nothing, receives nothing, fires no timers and takes no
  /// invocations; messages it already sent are still delivered.  Its
  /// pending operation (if any) stays pending in the trace.
  ///
  /// Arguments are validated: `t` must not lie in the past and `pid` must
  /// name a process (std::invalid_argument / std::out_of_range otherwise).
  /// Crashing an already-crashed process is a schedule bug and throws
  /// std::logic_error when the event fires.
  void crash_at(Tick t, ProcessId pid);

  /// Restart crashed process `pid` at real time `t` (crash-recovery model).
  /// The restarted process has fresh volatile state: timers armed before
  /// the crash never fire, its pending-operation slot is cleared (the cut
  /// operation stays pending in the trace), and Process::on_recover is
  /// invoked so the implementation can reset itself and rejoin.  Recorded
  /// as a kProcessRecovered fault event.  Messages addressed to the process
  /// that were in flight across the downtime are delivered on arrival if it
  /// is up by then (the network does not know about crashes).
  ///
  /// Validation mirrors crash_at: past times and unknown processes are
  /// rejected up front; recovering a process that is not crashed at time
  /// `t` throws std::logic_error when the event fires.
  void recover_at(Tick t, ProcessId pid);

  bool crashed(ProcessId pid) const {
    return static_cast<std::size_t>(pid) < crashed_.size() &&
           crashed_[static_cast<std::size_t>(pid)];
  }

  /// Number of times `pid` has recovered (0 = the original incarnation).
  int incarnation(ProcessId pid) const {
    return crash_epoch_.at(static_cast<std::size_t>(pid));
  }

  /// Invoked (synchronously) whenever any operation responds.
  void set_response_hook(std::function<void(const OperationRecord&)> hook) {
    response_hook_ = std::move(hook);
  }

  /// Invoked (synchronously) whenever an operation is dispatched to its
  /// process: after invoke_time is stamped, before Process::on_invoke (which
  /// may respond within the same call, so the invoke hook always precedes the
  /// response hook for one operation).  Invocations lost to a crash never
  /// fire it -- their records keep invoke_time == kNoTime; a stalled
  /// invocation fires it once, at the deferred dispatch.  Observation only:
  /// hooks must not touch the simulation (the streaming checker's tap relies
  /// on firing *after* the record is fully stamped, so it can never perturb
  /// the event schedule or the trace).
  void set_invoke_hook(std::function<void(const OperationRecord&)> hook) {
    invoke_hook_ = std::move(hook);
  }

  /// The currently installed hooks, so a second observer can chain instead
  /// of clobbering (checker/streaming_checker.h StreamingChecker::attach
  /// composes with core/driver.h, which also listens for responses).
  const std::function<void(const OperationRecord&)>& invoke_hook() const {
    return invoke_hook_;
  }
  const std::function<void(const OperationRecord&)>& response_hook() const {
    return response_hook_;
  }

  /// Invoked (synchronously, after Process::on_recover) whenever a crashed
  /// process recovers -- the application layer's chance to re-issue an
  /// operation the crash cut (core/driver.h WorkloadDriver::reissue_cut).
  void set_recovery_hook(std::function<void(ProcessId, Tick)> hook) {
    recovery_hook_ = std::move(hook);
  }

  /// Deliver on_start to every process.  Must be called exactly once,
  /// before run().
  void start();

  /// Process events until the queue is empty (quiescence) or the event cap
  /// trips.  Returns true on quiescence.
  bool run();

  /// Process all events with time <= t.  Returns true if the queue drained.
  bool run_until(Tick t);

  /// Conservative-PDES stepping: process all events with time strictly
  /// below `horizon` (windows are half-open [T, T + lookahead); an event at
  /// exactly the horizon belongs to the next window).  Unlike run_until,
  /// the horizon is NOT stamped into trace().end_time -- a trace produced
  /// by a sequence of windows is byte-identical to one produced by a single
  /// run() over the same schedule, which is the sharded determinism
  /// contract (src/shard/shard.h).
  WindowOutcome run_window(Tick horizon);

  /// Timestamp of the earliest queued event, or kTimeInfinity when the
  /// queue is empty (the shard scheduler's idle test).
  Tick next_event_time() const {
    return queue_.empty() ? kTimeInfinity : queue_.next_time();
  }

  std::size_t events_processed() const { return events_processed_; }

  /// Per-simulator event budget (SimConfig.max_events).  The sharded
  /// runtime gives every shard its own budget so one runaway shard aborts
  /// alone instead of draining a global cap shared with healthy shards.
  std::size_t max_events() const { return config_.max_events; }
  void set_max_events(std::size_t cap) { config_.max_events = cap; }

  /// Pre-size trace and queue storage from workload size hints (expected
  /// totals for the whole run), so the hot loop never reallocates.  Purely
  /// an optimization: capacities only grow and behavior is unchanged.
  /// Workload generators with known op counts (core/workload.h
  /// HeavyTrafficWorkload, core/driver.h WorkloadDriver) call this.
  void reserve(std::size_t ops, std::size_t messages, std::size_t events) {
    if (trace_.ops.capacity() < ops) trace_.ops.reserve(ops);
    if (trace_.messages.capacity() < messages) trace_.messages.reserve(messages);
    queue_.reserve(events);
  }

  /// Pre-size every process's timer slot table and free list for
  /// `per_process` concurrently armed timers (capacities only grow).  Call
  /// after all processes are added; sim/pool_set.h bundles this with the
  /// other pool reservations.
  void reserve_timer_slots(std::size_t per_process) {
    for (auto& slots : timer_slots_) {
      if (slots.capacity() < per_process) slots.reserve(per_process);
    }
    for (auto& free : timer_free_) {
      if (free.capacity() < per_process) free.reserve(per_process);
    }
  }

  const Trace& trace() const { return trace_; }

  /// Append a fault event to the trace on behalf of a harness-side
  /// supervisor (src/degrade/synchrony_monitor.h records kModeDowngrade /
  /// kModeUpgrade through this).  Internal simulator faults (drops, spikes,
  /// crashes, ...) are recorded directly; this hook exists so trace-visible
  /// events can also originate outside the message layer.
  void record_fault(const FaultEvent& event) { trace_.faults.push_back(event); }

  /// The future-event list (benches and tests: queue-level instrumentation
  /// such as EventQueue::set_log; not for scheduling -- use invoke_at /
  /// call_at, which maintain the trace invariants).
  EventQueue& event_queue() { return queue_; }

  /// The run-scoped payload allocator (see sim/arena.h).  Processes reach
  /// it through Process::make_msg; benches may inspect its counters.
  PayloadArena& arena() { return arena_; }
  const PayloadArena& arena() const { return arena_; }

 private:
  friend class Process;

  // --- internal API used by Process ---
  Tick local_time_of(ProcessId pid) const;
  /// Smallest real-time delta after which pid's local clock has advanced by
  /// at least `local_delta` (identity when the process has no drift).
  Tick real_delta_for_local(ProcessId pid, Tick local_delta) const;
  void send_from(ProcessId from, ProcessId to, const MessagePayload* payload);
  TimerId set_timer_for(ProcessId pid, Tick local_delta, TimerTag tag);
  void cancel_timer_for(ProcessId pid, TimerId id);
  void respond_for(ProcessId pid, std::int64_t token, Value ret);
  void give_up_for(ProcessId pid, std::int64_t token);

  void dispatch_invoke(ProcessId pid, std::int64_t token);
  void deliver(std::size_t record_index, const MessagePayload* payload);
  void fire_timer(ProcessId pid, TimerId id, TimerTag tag, int epoch);
  void do_crash(ProcessId pid);
  void do_recover(ProcessId pid);
  /// The one event loop behind run_until and run_window: pop and dispatch
  /// every event with time <= `last`, stopping early when the event budget
  /// trips (returns false then).  A popped delivery is dispatched together
  /// with the consecutive deliveries to the same recipient at the same tick
  /// (collect_delivery_batch) -- the pop order, and hence the trace, is the
  /// one-pop-one-dispatch order; batching only coalesces loop bookkeeping.
  bool drain_through(Tick last);
  /// Fire one popped event by kind.
  void dispatch(SimEvent& ev);
  /// Batched delivery: pop every event directly after `head` that is also a
  /// delivery at the same tick to the same recipient into batch_, checking
  /// the event budget before each member pop (so a budget trip leaves the
  /// queue exactly as a one-pop-one-dispatch loop would).  Handler pushes during
  /// the subsequent dispatches carry higher seq numbers than every
  /// collected member, so pre-collecting does not reorder pops.
  void collect_delivery_batch(const SimEvent& head);
  /// End of pid's stall window when one covers `now_`; kNoTime otherwise.
  Tick stall_deferral(ProcessId pid);

  SimConfig config_;
  /// Declared before the queue and processes: events and link layers hold
  /// raw payload pointers, so the arena must be destroyed last.
  PayloadArena arena_;
  EventQueue queue_;
  std::vector<std::unique_ptr<Process>> procs_;
  Trace trace_;
  Tick now_ = 0;
  bool started_ = false;
  std::size_t events_processed_ = 0;
  /// Scratch for collect_delivery_batch (reused across batches; sized once
  /// at construction -- a batch is one broadcast fan-in, a handful of
  /// events).
  std::vector<SimEvent> batch_;

  MessageId next_message_id_ = 0;

  // --- O(1), garbage-free timer lifecycle ---
  //
  // A TimerId encodes (generation << kTimerSlotBits) | slot into the dense
  // per-process slot table below (replacing the seed's global
  // unordered_map<TimerId, bool>, whose rehash/erase churn sat on the hot
  // path).  Arming pops a slot off the per-process free list; cancelling or
  // firing bumps the slot's generation and returns it, so a queued timer
  // event whose generation no longer matches is *purged* at dispatch in two
  // loads -- no hashing, no tombstones, no allocation in steady state.
  // Counters land in trace().stats.
  static constexpr int kTimerSlotBits = 20;
  static constexpr std::int64_t kTimerSlotMask = (std::int64_t{1} << kTimerSlotBits) - 1;
  struct TimerSlot {
    std::int64_t gen = 0;
    bool armed = false;
  };
  /// Release `slot` on `pid`: disarm, retire the generation (stale queued
  /// events stop matching) and recycle the slot.
  void release_timer_slot(ProcessId pid, std::int32_t slot);
  std::vector<std::vector<TimerSlot>> timer_slots_;    // indexed by process id
  std::vector<std::vector<std::int32_t>> timer_free_;  // per-process free slots

  /// token -> true while the operation is pending (enforces the model's
  /// one-pending-operation-per-process constraint).
  std::vector<bool> op_pending_;  // indexed by process id
  std::vector<bool> crashed_;     // indexed by process id
  /// Incarnation counter per process, bumped on every recovery.  Timers
  /// capture the arming incarnation and fire only if it still matches --
  /// a restarted process has lost its volatile state, old timers included.
  std::vector<int> crash_epoch_;  // indexed by process id

  std::function<void(const OperationRecord&)> response_hook_;
  std::function<void(const OperationRecord&)> invoke_hook_;
  std::function<void(ProcessId, Tick)> recovery_hook_;
};

}  // namespace linbound
