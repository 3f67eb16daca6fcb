// Crash-recovery counterpart of harness/fault_sweep.h: sweep the
// recoverable replica (core/recoverable_replica.h) over a grid of churn
// intensities (mean uptime x mean downtime, per fault/churn.h) and seeds,
// with four claims checked per cell:
//
//   1. every churned run is linearizable (pending-aware: operations cut by
//      a crash and re-issued after recovery are accepted);
//   2. survivors -- replicas that never crash -- keep Algorithm 1's
//      per-class response bounds (d_eff+eps / eps+X / d_eff+eps-X), churn
//      or not: the rejoin protocol costs them one snapshot message, never
//      a wait;
//   3. recovery is time-bounded: the first operation answered after a
//      rejoin completes within recovery_bound() of its invocation
//      (join round trip + catch-up window + the class's own bound);
//   4. every churned run is attributed by the assumption monitor to
//      kRecovering (and nothing is left unexplained).
//
// Availability -- the fraction of invocation attempts answered -- is
// reported per cell; bench_churn_sweep prints the table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "harness/experiment.h"

namespace linbound {

/// One churn intensity; durations are the ChurnConfig means.
struct ChurnCell {
  Tick mean_uptime = 0;
  Tick mean_downtime = 0;

  std::string label() const;
};

struct ChurnSweepOptions {
  int n = 4;
  SystemTiming timing;
  Tick x = 0;               ///< Algorithm 1's trade-off parameter
  int seeds = 5;            ///< randomized runs per cell
  Tick think_time = 0;      ///< client think time between operations
  int ops_per_client = 10;  ///< script length per process
  /// Grid of churn intensities; empty means default_churn_cells().
  std::vector<ChurnCell> cells;
  /// Link + rejoin knobs for the recoverable replicas.
  RecoverableParams recoverable;
  /// First possible crash / last possible crash (real time); 0 means
  /// derived from the workload span so churn overlaps the active run.
  Tick churn_start = 0;
  Tick churn_horizon = 0;
  std::uint64_t base_seed = 0xc4a5'4baccULL;
  /// Worker threads (common/parallel.h); every (cell, seed) run is an
  /// independent deterministic simulation, aggregated in canonical order,
  /// so any value produces byte-identical results.
  int jobs = 1;
  /// Checker configuration for every run's (possibly pending-laden)
  /// history; verdicts are identical at any value.
  CheckOptions check;
};

/// The standard grid, scaled by the effective delivery bound d_eff:
/// occasional short outages, occasional long ones, frequent short ones.
std::vector<ChurnCell> default_churn_cells(const SystemTiming& timing,
                                           const RecoverableParams& params);

/// Per-cell aggregate over the seeds.
struct ChurnCellResult {
  ChurnCell cell;
  int runs = 0;

  int linearizable = 0;
  std::int64_t invocations = 0;  ///< dispatched or scheduled attempts
  std::int64_t answered = 0;     ///< attempts that completed
  int crashes = 0;
  int recoveries = 0;
  int reissued = 0;              ///< cut operations retried by the driver

  /// Worst crash -> first-response-after-recovery gap (downtime included);
  /// kNoTime if no post-recovery response was observed.
  Tick worst_crash_to_response = kNoTime;
  /// Worst latency of the first operation completed after a rejoin.
  Tick worst_rejoin_latency = kNoTime;
  int rejoin_bound_violations = 0;    ///< rejoin latencies over recovery_bound
  int survivor_bound_violations = 0;  ///< survivor ops over their class bound
  int runs_with_recovering_attribution = 0;
  int failures_unattributed = 0;  ///< flagged runs the monitor cannot explain

  std::vector<std::string> notes;  ///< one line per noteworthy run

  double availability() const {
    return invocations ? static_cast<double>(answered) /
                             static_cast<double>(invocations)
                       : 1.0;
  }
};

struct ChurnSweepResult {
  /// Per-class response bounds of the swept system (computed from the
  /// effective timing) and the rejoin bound derived from them.
  Tick oop_bound = 0;
  Tick mop_bound = 0;
  Tick aop_bound = 0;
  Tick recovery_bound = 0;
  std::vector<ChurnCellResult> cells;

  /// Claim 1: every run, every cell, linearizable.
  bool all_linearizable() const;
  /// Claim 2: no survivor operation exceeded its class bound.
  bool survivors_within_bounds() const;
  /// Claim 3: every first-after-rejoin operation within recovery_bound.
  bool recovery_bounded() const;
  /// Claim 4: churned runs carry kRecovering attributions and no flagged
  /// run went unexplained.
  bool churn_attributed() const;

  bool ok() const {
    return all_linearizable() && survivors_within_bounds() &&
           recovery_bounded() && churn_attributed();
  }

  /// Formatted per-cell table (for bench_churn_sweep).
  std::string table() const;
};

/// The rejoin-latency bound claimed per recovery: join round trip over the
/// effective link, the catch-up window, then the slowest class's own
/// response bound.
Tick churn_recovery_bound(const SystemTiming& timing,
                          const RecoverableParams& params,
                          const AlgorithmDelays& delays);

/// Run the sweep: for each cell and seed, one recoverable-replica run with
/// the cell's churn schedule; message faults are off, so every deviation is
/// attributable to churn alone.
ChurnSweepResult run_churn_sweep(const std::shared_ptr<const ObjectModel>& model,
                                 const WorkloadFactory& workload,
                                 const ChurnSweepOptions& options);

}  // namespace linbound
