// The allocation-free-steady-state contract (DESIGN.md section 15): with
// the pools sized from the workload bound (sim/pool_set.h knobs on
// HeavyTrafficOptions plus ReplicaProcess::reserve_pending), a warmed-up
// hardened Algorithm 1 run performs ZERO heap allocations -- counted by the
// global operator new interposer in common/alloc_count.cpp, which this test
// links (alone among the tier-1 tests; see tests/CMakeLists.txt).
//
// The split-run trick: Simulator::run_until(warmup) then run() produces the
// exact same trace as a single run() over the schedule, so snapshotting the
// counter between the two halves measures the steady state of the *real*
// run, not of a special instrumented configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "core/system.h"
#include "core/workload.h"
#include "types/register_type.h"

namespace linbound {
namespace {

constexpr int kN = 4;
constexpr std::size_t kOps = 10'000;
/// Steady-state allocations per operation allowed to the inline streaming
/// checker on this run.  It measures 2.52.
constexpr double kCheckerAllocsPerOp = 3.0;

SystemTiming timing() {
  SystemTiming t;
  t.d = 1000;
  t.u = 400;
  t.eps = 300;
  return t;
}

/// The warmed-up hardened Algorithm 1 register run both tests measure.
struct WarmRun {
  WarmRun()
      : model(std::make_shared<RegisterModel>()),
        system(model, system_options()),
        workload(system.sim(), workload_options()) {
    for (ProcessId p = 0; p < kN; ++p) system.replica(p).reserve_pending(256);
  }

  static SystemOptions system_options() {
    SystemOptions sys;
    sys.n = kN;
    sys.timing = timing();
    sys.x = 0;
    sys.hardened = hardened();  // retransmitting link + dedup tables
    sys.max_events = kOps * 100 + 100'000;
    return sys;
  }

  static HardenedParams hardened() {
    HardenedParams hp;
    hp.max_attempts = 2;  // keeps d_eff -- and hence the run length -- small
    return hp;
  }

  static HeavyTrafficOptions workload_options() {
    // The hardened algorithm's waits widen to the effective delivery bound
    // d_eff, so the open-loop gap must clear d_eff + eps, not d + eps.
    const Tick d_eff = hardened().effective_d(timing());
    HeavyTrafficOptions w;
    w.clients = kN;
    w.total_ops = kOps;
    w.min_gap = 2 * (d_eff + timing().eps);
    w.jitter = 997;
    // Size every pool for the whole run (growth is monotonic, so warm-up
    // alone cannot protect a pool the steady state keeps growing): hardened
    // n=4 builds broadcast + link frames + acks + destructor nodes per op.
    w.messages_per_op = 24;
    w.payload_bytes_per_op = 1024;
    w.timer_slots_per_process = 256;
    w.events_per_tick = 16;
    return w;
  }

  /// Start the run and advance it through warm-up: ~15% of the run, far
  /// past every high-water mark (open-loop arrivals are steady from the
  /// start, so capacities peak early).
  void warm_up() {
    system.sim().start();
    workload.arm();
    const HeavyTrafficOptions w = workload_options();
    const Tick warmup =
        static_cast<Tick>(kOps / kN) * (w.min_gap + w.jitter / 2) * 15 / 100;
    system.sim().run_until(warmup);
  }

  std::shared_ptr<RegisterModel> model;
  ReplicaSystem system;
  HeavyTrafficWorkload workload;
};

TEST(AllocFree, HardenedSteadyStateAllocatesNothing) {
  ASSERT_TRUE(alloc_counting_enabled())
      << "test_alloc_free must link linbound_alloccount (COUNT_ALLOCS)";

  WarmRun run;
  run.warm_up();
  const std::uint64_t before = heap_allocs();
  // Debugging a regression here: set_alloc_trap(true) makes the first
  // steady-state allocation dump a backtrace and exit (common/alloc_count.h).
  EXPECT_GT(before, 0u);  // the interposer is live and counted the warm-up

  ASSERT_TRUE(run.system.sim().run());
  const std::uint64_t steady = heap_allocs() - before;

  const Trace& trace = run.system.sim().trace();
  ASSERT_TRUE(trace.complete());
  ASSERT_EQ(trace.ops.size(), kOps);
  EXPECT_EQ(steady, 0u)
      << "steady-state heap allocations leaked into the op pipeline";
}

TEST(AllocFree, StreamingCheckerSteadyStateAllocationsPerOp) {
  // The same warmed run with an inline online checker tapped in.  The
  // simulator's share is zero (above), so every steady-state allocation
  // here is the checker's: one witness-chain node per retired segment plus
  // the copy-on-write state clones its enumeration makes.  Its segment
  // scratch, window buffers and in-flight index are reused, not rebuilt.
  ASSERT_TRUE(alloc_counting_enabled());

  WarmRun run;
  StreamingChecker checker(*run.model);  // jobs=1: inline, on this thread
  checker.attach(run.system.sim());
  run.warm_up();
  const std::uint64_t before = heap_allocs();
  const std::size_t ops_before = checker.ops_seen();

  ASSERT_TRUE(run.system.sim().run());
  const std::uint64_t steady = heap_allocs() - before;
  const std::size_t ops = checker.ops_seen() - ops_before;
  ASSERT_GT(ops, kOps / 2);

  const double per_op = static_cast<double>(steady) / static_cast<double>(ops);
  std::printf("streaming checker: %.2f steady-state allocations per op\n",
              per_op);
  EXPECT_LE(per_op, kCheckerAllocsPerOp);
  EXPECT_TRUE(checker.finalize().ok);
}

}  // namespace
}  // namespace linbound
