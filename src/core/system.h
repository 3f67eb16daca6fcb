// Convenience builders: a simulator pre-populated with n replicas running
// Algorithm 1 (or the centralized baseline) over a given object model.
// This is the library's primary entry point -- see examples/quickstart.cpp.
#pragma once

#include <memory>
#include <optional>

#include "checker/history.h"
#include "checker/lin_checker.h"
#include "core/centralized_algorithm.h"
#include "core/hardened_replica.h"
#include "core/recoverable_replica.h"
#include "core/replica_algorithm.h"
#include "core/tob_algorithm.h"
#include "sim/simulator.h"
#include "spec/object_model.h"

namespace linbound {

struct SystemOptions {
  int n = 3;
  SystemTiming timing;
  /// Trade-off parameter X in [0, d+eps-u] (Algorithm 1 only).
  Tick x = 0;
  std::shared_ptr<DelayPolicy> delays;     ///< default: worst case (all d)
  /// Fault injection (drop / duplicate / spike / stall); default none.
  std::shared_ptr<FaultPolicy> faults;
  std::vector<Tick> clock_offsets;         ///< default: all zero
  /// Override the algorithm's internal delays (eager variants for the
  /// lower-bound demonstrations).  Algorithm 1 only.
  std::optional<AlgorithmDelays> algorithm_delays;
  /// Run the loss/duplication-tolerant replica variant
  /// (core/hardened_replica.h); its waits are computed against the widened
  /// effective timing unless algorithm_delays overrides them.  Algorithm 1
  /// only.
  std::optional<HardenedParams> hardened;
  /// Run the crash-recovery variant (core/recoverable_replica.h): hardened
  /// link plus the rejoin/state-transfer protocol, so processes crashed and
  /// restarted via Simulator::crash_at/recover_at (e.g. a ChurnSchedule)
  /// catch back up.  Takes precedence over `hardened`.  Algorithm 1 only.
  std::optional<RecoverableParams> recoverable;
  /// Centralized/TOB only: clients abandon an operation (Process::give_up)
  /// this long after invoking it without an answer, so a dead coordinator
  /// or sequencer degrades to a Stalled outcome instead of hanging the
  /// operation forever.  0 = wait forever (the historical behavior and the
  /// default); negative values are rejected at system construction
  /// (std::invalid_argument).
  Tick give_up_after = 0;
  std::size_t max_events = 10'000'000;
};

/// How a run ended.
enum class RunStatus {
  kComplete,          ///< quiescent, every dispatched operation answered
  kStalled,           ///< quiescent, but operations were left pending/abandoned
  kEventCapExceeded,  ///< the event cap tripped (runaway algorithm)
  /// A watchdog ended the run before quiescence: the chaos engine's
  /// non-termination guards (event-count / wall-clock budgets, src/chaos)
  /// cut it off.  Unlike kEventCapExceeded -- a hard simulator safety cap --
  /// an abort is a deliberate, configured verdict of "this run was not going
  /// to finish in budget".
  kAborted,
};

const char* run_status_name(RunStatus status);

/// Tolerant counterpart of ObjectSystem::run_to_completion: the completed
/// history plus whatever was left pending, with an explicit status instead
/// of an exception.
struct RunOutcome {
  RunStatus status = RunStatus::kComplete;
  History history;                          ///< completed operations
  std::vector<PendingInvocation> pending;   ///< dispatched, never answered

  bool complete() const { return status == RunStatus::kComplete; }
  bool stalled() const { return status == RunStatus::kStalled; }
};

/// A simulator plus the shared-object processes living in it.
class ObjectSystem {
 public:
  /// Virtual: harnesses own concrete systems through unique_ptr<ObjectSystem>
  /// (chaos/chaos.cpp).
  virtual ~ObjectSystem() = default;
  ObjectSystem(const ObjectSystem&) = delete;
  ObjectSystem& operator=(const ObjectSystem&) = delete;

  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }
  const ObjectModel& model() const { return *model_; }
  std::shared_ptr<const ObjectModel> model_ptr() const { return model_; }
  int n() const { return sim_->process_count(); }

  /// Run to quiescence and return the resulting history.  Throws if the
  /// event cap tripped or an operation never completed.
  History run_to_completion();

  /// Run to quiescence and report what happened instead of throwing:
  /// degraded runs (dead coordinator, given-up operations) come back as
  /// kStalled with the pending invocations listed.
  RunOutcome run_with_outcome();

  /// Shorthand: run to completion and check linearizability.
  CheckResult run_and_check();

 protected:
  ObjectSystem(std::shared_ptr<const ObjectModel> model, const SystemOptions& options);

  std::shared_ptr<const ObjectModel> model_;
  std::unique_ptr<Simulator> sim_;
};

/// n processes running Algorithm 1.
class ReplicaSystem final : public ObjectSystem {
 public:
  ReplicaSystem(std::shared_ptr<const ObjectModel> model, const SystemOptions& options);

  const AlgorithmDelays& algorithm_delays() const { return delays_; }
  ReplicaProcess& replica(ProcessId pid);

 private:
  AlgorithmDelays delays_;
};

/// n processes running the folklore centralized algorithm; process 0 is the
/// coordinator.
class CentralizedSystem final : public ObjectSystem {
 public:
  CentralizedSystem(std::shared_ptr<const ObjectModel> model,
                    const SystemOptions& options);
};

/// n processes running the sequencer-based total-order-broadcast baseline;
/// process 0 is the sequencer.
class TobSystem final : public ObjectSystem {
 public:
  TobSystem(std::shared_ptr<const ObjectModel> model, const SystemOptions& options);
};

}  // namespace linbound
