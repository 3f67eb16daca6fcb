// The open-loop HeavyTrafficWorkload (core/workload.h) and the determinism
// contract at the system level.  Clean runs, fault-injected hardened runs
// and the fault/churn sweep harnesses hash to values pinned when the seed's
// binary-heap event queue still ran beside the calendar queue and both
// agreed; a recorded heavy-traffic push/pop stream replayed through the
// calendar and the test-side seed heap (seed_heap.h) keeps the pop-order
// contract itself under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/workload.h"
#include "fault/fault_policy.h"
#include "harness/churn_sweep.h"
#include "harness/fault_sweep.h"
#include "seed_heap.h"
#include "sim/trace_io.h"
#include "types/register_type.h"

namespace linbound {
namespace {

SystemTiming timing() { return SystemTiming{1000, 400, 300}; }

SystemOptions base_options() {
  SystemOptions o;
  o.n = 4;
  o.timing = timing();
  o.x = 0;
  return o;
}

HeavyTrafficOptions traffic(std::size_t ops) {
  HeavyTrafficOptions w;
  w.clients = 4;
  w.total_ops = ops;
  w.min_gap = 4 * timing().d;  // above Algorithm 1's d+eps response bound
  w.jitter = 137;
  w.batch = 256;  // several bursts even at test-sized op counts
  return w;
}

/// FNV-1a over a string (sweep tables are pinned by hash).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// One open-loop run through Algorithm 1; returns the serialized trace.
/// A non-null `log` records the run's queue push/pop stream.
std::string run_heavy(const SystemOptions& options, const HeavyTrafficOptions& w,
                      std::vector<std::int64_t>* log = nullptr) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, options);
  HeavyTrafficWorkload workload(system.sim(), w);
  if (log) system.sim().event_queue().set_log(log, SIZE_MAX);
  system.sim().start();
  workload.arm();
  EXPECT_TRUE(system.sim().run());
  EXPECT_EQ(workload.scheduled(), w.total_ops);
  EXPECT_EQ(system.sim().trace().ops.size(), w.total_ops);
  EXPECT_TRUE(system.sim().trace().complete());
  return trace_to_string(system.sim().trace());
}

TEST(HeavyTraffic, DeterministicAcrossRuns) {
  const std::string a = run_heavy(base_options(), traffic(1000));
  const std::string b = run_heavy(base_options(), traffic(1000));
  EXPECT_EQ(a, b);
}

TEST(HeavyTraffic, TraceHashPinned) {
  EXPECT_EQ(fnv1a(run_heavy(base_options(), traffic(2000))),
            0xb17f4144287547d0ull);
}

TEST(HeavyTraffic, QueueReplayMatchesSeedHeap) {
  // The pop-order contract on a real interleaving: replay the recorded
  // push/pop stream of a heavy-traffic run through a bare calendar queue
  // and the seed heap, and compare every pop's (time, priority, seq).
  std::vector<std::int64_t> log;
  run_heavy(base_options(), traffic(2000), &log);
  EventQueue calendar;
  seed::SeedHeap heap;
  std::size_t pops = 0;
  for (const std::int64_t entry : log) {
    if (entry == EventQueue::kPopSentinel) {
      ASSERT_FALSE(calendar.empty());
      ASSERT_EQ(calendar.size(), heap.size());
      const SimEvent a = calendar.pop();
      const seed::FatEvent b = heap.pop();
      ASSERT_EQ(a.time, b.time) << "pop " << pops;
      ASSERT_EQ(int{a.priority}, b.priority) << "pop " << pops;
      ASSERT_EQ(a.seq, b.seq) << "pop " << pops;
      ++pops;
      continue;
    }
    const Tick time = entry >> 1;
    const auto priority = static_cast<EventPriority>(entry & 1);
    SimEvent ev;
    ev.kind = EventKind::kTimer;
    seed::FatEvent fat;
    fat.kind = EventKind::kTimer;
    ASSERT_EQ(calendar.push_typed(time, priority, ev),
              heap.push_typed(time, priority, fat));
  }
  EXPECT_GT(pops, 2000u * 4);
  EXPECT_TRUE(calendar.empty());
  EXPECT_TRUE(heap.empty());
}

TEST(HeavyTraffic, FaultedHardenedTraceHashPinned) {
  // Duplicates and delay spikes through the hardened replica (no drops:
  // open-loop arrivals cannot re-issue an operation a lost message would
  // strand, so the mix keeps completion guaranteed while still exercising
  // the fault layer).
  HardenedParams hardened;
  hardened.spike_margin = 300;
  auto options = [&] {
    SystemOptions o = base_options();
    FaultConfig faults;
    faults.dup_p = 0.08;
    faults.spike_p = 0.08;
    faults.spike_max = 300;
    faults.seed = 0xfa17u;
    o.faults = make_fault_policy(faults);
    o.hardened = hardened;
    return o;
  };

  // Worst-case hardened response stays under d_eff + eps; keep the
  // open-loop gap above it.
  HeavyTrafficOptions w = traffic(1000);
  w.min_gap = hardened.effective_d(timing()) + timing().eps + 1000;

  const std::string trace = run_heavy(options(), w);
  EXPECT_EQ(fnv1a(trace), 0xccf8211788fefa38ull);
  EXPECT_NE(trace.find("fault"), std::string::npos)
      << "fault mix injected nothing; the pinned run is vacuous";
}

TEST(HeavyTraffic, FaultSweepTablePinned) {
  auto model = std::make_shared<RegisterModel>();
  const OpMix mix{2, 2, 2};
  WorkloadFactory workload = [&](ProcessId, Rng& rng) {
    return random_register_ops(rng, 8, mix);
  };
  FaultSweepOptions opts;
  opts.n = 4;
  opts.timing = timing();
  opts.seeds = 2;
  const FaultSweepResult result = run_fault_sweep(model, workload, opts);
  EXPECT_EQ(result.cells.size(), 6u);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(fnv1a(result.table()), 0x6d12f22744500513ull);
}

TEST(HeavyTraffic, ChurnSweepTablePinned) {
  auto model = std::make_shared<RegisterModel>();
  const OpMix mix{2, 2, 2};
  WorkloadFactory workload = [&](ProcessId, Rng& rng) {
    return random_register_ops(rng, 6, mix);
  };
  ChurnSweepOptions opts;
  opts.n = 4;
  opts.timing = timing();
  opts.seeds = 2;
  opts.ops_per_client = 6;
  opts.recoverable.link.max_attempts = 3;
  const ChurnSweepResult result = run_churn_sweep(model, workload, opts);
  EXPECT_EQ(result.cells.size(), 3u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(fnv1a(result.table()), 0x1f2691561e3e65fbull);
}

TEST(HeavyTraffic, ArmReservesTraceStorage) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(5000);
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  // The size hints must have landed: ops for the whole run, messages for
  // one broadcast per op (messages_per_op = 0 -> clients).
  EXPECT_GE(system.sim().trace().ops.capacity(), w.total_ops);
  EXPECT_GE(system.sim().trace().messages.capacity(),
            w.total_ops * static_cast<std::size_t>(w.clients));
  EXPECT_TRUE(system.sim().run());
}

TEST(HeavyTraffic, GapBelowResponseBoundThrows) {
  // Open-loop scheduling with a gap under the worst-case response violates
  // the model's one-pending-operation-per-process constraint; the
  // simulator rejects the overlapping invocation loudly.
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(100);
  w.min_gap = 100;  // far below d + eps = 1300
  w.jitter = 0;
  HeavyTrafficWorkload workload(system.sim(), w);
  system.sim().start();
  workload.arm();
  EXPECT_THROW(system.sim().run(), std::logic_error);
}

TEST(HeavyTraffic, RejectsBadOptions) {
  auto model = std::make_shared<RegisterModel>();
  ReplicaSystem system(model, base_options());
  HeavyTrafficOptions w = traffic(10);
  w.clients = 0;
  EXPECT_THROW(HeavyTrafficWorkload(system.sim(), w), std::invalid_argument);
  w = traffic(10);
  w.min_gap = 0;
  EXPECT_THROW(HeavyTrafficWorkload(system.sim(), w), std::invalid_argument);
  w = traffic(10);
  w.accessors = 0;
  w.mutators = 0;
  EXPECT_THROW(HeavyTrafficWorkload(system.sim(), w), std::invalid_argument);
}

}  // namespace
}  // namespace linbound
