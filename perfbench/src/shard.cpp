// shard_1024: ShardedSimulation with 1024 stock Algorithm 1 shards sharing
// 1M zipf(0.9)-apportioned ops and 4 cross-shard sync epochs.  Each
// iteration runs run(4) unchecked, then again with streaming_check.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "checker/history.h"
#include "checker/lin_checker.h"
#include "checker/streaming_checker.h"
#include "common/alloc_count.h"
#include "common/parallel.h"
#include "shard/shard.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace linbound;

constexpr int kSetupRepeats = 3;

ShardOptions shard_options(const Options& o, bool checked) {
  ShardOptions opt;
  opt.shards = static_cast<int>(scaled(1024, o.scale, 8));
  opt.total_ops = scaled(1'000'000, o.scale, 4000);
  opt.timing = default_timing();
  opt.zipf_s = 0.9;
  opt.sync_epochs = 4;
  opt.seed = o.seed;
  opt.streaming_check = checked;
  return opt;
}

/// Constructs the simulation kSetupRepeats times, appending each
/// constructor's wall time to `setup`; returns the last one.
std::unique_ptr<ShardedSimulation> construct(const ShardOptions& opt,
                                             std::vector<double>& setup) {
  std::unique_ptr<ShardedSimulation> sim;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sim.reset();
    const double t0 = now_s();
    sim = std::make_unique<ShardedSimulation>(opt);
    setup.push_back(now_s() - t0);
  }
  return sim;
}

/// Ops in shards that did not complete: aborted or left pending.
std::size_t unanswered(const ShardRunReport& report) {
  std::size_t n = 0;
  for (const ShardResult& s : report.shards) {
    if (s.status != RunStatus::kComplete) n += s.ops;
  }
  return n;
}

bool all_checked_ok(const ShardRunReport& report) {
  bool ok = report.check_failures == 0 &&
            report.checked == static_cast<int>(report.shards.size());
  for (const ShardResult& s : report.shards) ok = ok && s.checked && s.check_ok;
  return ok;
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
}

}  // namespace

void shard_e2e(const Options& o, Result& r) {
  const ShardOptions opt = shard_options(o, false);
  const ShardOptions copt = shard_options(o, true);
  std::printf("shard_1024: %d shards x %zu ops, zipf %.2f, %d sync epochs, "
              "run(%d)\n", opt.shards, opt.total_ops, opt.zipf_s,
              opt.sync_epochs, kJobs);

  std::vector<double> setup, plain, verified;
  std::vector<std::uint64_t> hashes;
  std::unique_ptr<ShardedSimulation> csim;
  ShardRunReport creport;
  bool passes_complete = true;
  bool passes_checked = true;
  std::size_t ops = 0;
  const double deadline = now_s() + o.seconds;
  while (true) {
    csim.reset();  // one simulation alive at a time bounds peak memory
    {
      const auto sim = construct(opt, setup);
      const double t0 = now_s();
      const ShardRunReport report = sim->run(kJobs);
      plain.push_back(now_s() - t0);
      ops = report.total_ops;
      passes_complete = passes_complete && report.aborted == 0 &&
                        report.total_ops >= opt.total_ops;
      r.tally(report.total_ops, unanswered(report));
      if (hashes.empty()) {
        for (const ShardResult& s : report.shards) hashes.push_back(s.trace_hash);
      }
    }
    csim = construct(copt, setup);
    const double t0 = now_s();
    creport = csim->run(kJobs);
    verified.push_back(now_s() - t0);
    passes_complete = passes_complete && creport.aborted == 0;
    passes_checked = passes_checked && all_checked_ok(creport);
    r.tally(creport.total_ops,
            unanswered(creport) + (all_checked_ok(creport) ? 0 : creport.total_ops));
    if (now_s() >= deadline) break;
  }
  r.check(passes_complete, "every op answered and no shard aborted");
  r.check(passes_checked, "every shard's streaming verdict: linearizable");

  // Checks on the last checked run, outside the timed region.
  bool tap_invisible = creport.shards.size() == hashes.size();
  for (const ShardResult& s : creport.shards) {
    tap_invisible = tap_invisible &&
                    s.trace_hash == hashes[static_cast<std::size_t>(s.shard)];
  }
  r.check(tap_invisible, "checked-run shard hashes equal the unchecked run");

  const ParallelSweepExecutor executor(kJobs);
  const auto solo = executor.map<std::uint64_t>(
      hashes.size(), [&](std::size_t s) {
        return csim->run_solo(static_cast<int>(s)).trace_hash;
      });
  r.check(solo == hashes, "every shard hash equals its run_solo reference");

  const ObjectModel& model = csim->model();
  const auto agree = executor.map<int>(hashes.size(), [&](std::size_t s) {
    const Trace& trace = csim->trace(static_cast<int>(s));
    const CheckResult live = streaming_check_trace(model, trace);
    const auto [history, pending] = history_with_pending(trace);
    const CheckResult offline = check_linearizable_with_pending(
        model, history, pending, CheckOptions{});
    return live.ok && offline.ok && live.witness == offline.witness;
  });
  bool identical = true;
  for (const int a : agree) identical = identical && a;
  r.check(identical,
          "per-shard streaming verdict and witness equal the offline checker's");

  LatencyReport latency;
  for (std::size_t s = 0; s < hashes.size(); ++s) {
    latency.absorb(model, csim->trace(static_cast<int>(s)));
  }
  const SystemTiming t = default_timing();
  r.check(report_latency("aop", latency, OpClass::kPureAccessor, t.d + t.eps),
          "accessor latency within d+eps-X");
  r.check(report_latency("mop", latency, OpClass::kPureMutator, t.eps),
          "mutator latency within eps+X");
  r.check(r.failed() == 0, "no failed ops");
  std::printf("passes: %zu unchecked + %zu checked, %zu windows, %zu beacons\n",
              plain.size(), verified.size(), creport.windows, creport.beacons);

  r.set("setup_s", summarize("setup_s", setup), "s");
  r.set("ops_per_s", ops / summarize("plain_pass_s", plain), "1/s");
  r.set("verified_ops_per_s", ops / summarize("verified_pass_s", verified),
        "1/s");
}

double shard_layers(const Options& o, Result& r, Spans& spans) {
  const ShardOptions opt = shard_options(o, false);
  Spans::Scope root(spans, "shard_1024");
  // A warm-up run first: a process's first run also pays for fresh memory,
  // which would read as a negative tracing overhead.
  ShardedSimulation(opt).run(kJobs);
  double plain = 0;
  {
    ShardedSimulation untraced(opt);
    Spans::Scope span(spans, "shard.run_untraced");
    untraced.run(kJobs);
    plain = span.close();
  }
  ShardedSimulation sim(opt);
  rusage before{};
  rusage after{};
  Spans::Scope run_span(spans, "shard.run");
  getrusage(RUSAGE_SELF, &before);
  const std::uint64_t allocs0 = heap_allocs();
  const ShardRunReport report = sim.run(kJobs);
  const std::uint64_t allocs = heap_allocs() - allocs0;
  getrusage(RUSAGE_SELF, &after);
  const double run = run_span.close();
  r.tally(report.total_ops, unanswered(report));
  r.check(report.aborted == 0, "shard_1024 traced: no shard aborted");
  const double ops = static_cast<double>(report.total_ops);
  r.set("shard.run_s", run, "s");
  r.set("shard.user_s",
        cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime), "s");
  r.set("shard.sys_s",
        cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime), "s");
  r.set("shard.allocs_per_op", static_cast<double>(allocs) / ops, "count");
  r.set("shard.events_per_op", static_cast<double>(report.total_events) / ops,
        "count");
  r.set("shard.windows", static_cast<double>(report.windows), "count");
  r.set("shard.beacons", static_cast<double>(report.beacons), "count");

  // Each shard alone, one at a time: the summed per-shard work and the
  // slowest shard, which floors any parallel schedule.
  std::vector<double> solo;
  bool identical = true;
  {
    Spans::Scope span(spans, "shard.solo");
    for (const ShardResult& shard : report.shards) {
      Spans::Scope one(spans, "shard.solo_run");
      const ShardResult res = sim.run_solo(shard.shard);
      solo.push_back(one.close());
      identical = identical && res.trace_hash == shard.trace_hash;
    }
  }
  r.check(identical, "shard_1024 traced: every shard hash equals run_solo");
  double solo_sum = 0;
  double solo_max = 0;
  for (const double s : solo) {
    solo_sum += s;
    solo_max = std::max(solo_max, s);
  }
  r.set("shard.solo_sum_s", solo_sum, "s");
  r.set("shard.solo_p50_ms", 1e3 * median(solo), "ms");
  r.set("shard.solo_max_ms", 1e3 * solo_max, "ms");
  r.set("shard.protocol_s", run - solo_sum / kJobs, "s");

  ShardedSimulation checked(shard_options(o, true));
  Spans::Scope check_span(spans, "shard.checked_run");
  const ShardRunReport creport = checked.run(kJobs);
  r.set("shard.check_s", check_span.close() - run, "s");
  r.check(creport.aborted == 0 && all_checked_ok(creport),
          "shard_1024 traced: every shard checked linearizable");
  return run / plain - 1;
}

}  // namespace perfbench
