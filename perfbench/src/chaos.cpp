// The chaos layers of the traced run: run_chaos_search over the covered
// fault and churn grid at n = 3 with the default timing, then every spec
// alone.  Two grids are profiled:
//
//   chaos    the stock, hardened, recoverable and quorum variants, 24 seeds
//            per cell (696 specs): per-run setup, fault policies, links,
//            quorum engine, offline checker on short histories, double-run
//            hash;
//   degrade  the mode-switching variant alone, 8 seeds per cell (48 specs):
//            the SynchronyMonitor and era handoffs.
//
// Neither grid is an end-to-end workload.  A mode-switching spec costs from
// 1 ms to over 1 s, so that grid's throughput depends on the seed far more
// than any bound the benchmark may set.  About one fixed-variant grid in
// nine holds a recoverable spec that never quiesces, so the watchdog aborts
// it; that failed spec also cuts the grid's throughput about fivefold.
//
// Safety violations (not linearizable, latency bound exceeded, runs that
// disagree with themselves) fail the run.  A watchdog abort is a liveness
// failure: it is counted in `failed` and printed with its seeds.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "chaos/search.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace linbound;

constexpr int kSetupRepeats = 5;

/// splitmix64 finalizer: neighbouring benchmark seeds give unrelated grids.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ChaosSearchOptions search_options(const Options& o, bool degrade) {
  ChaosSearchOptions opt;
  if (degrade) {
    opt.variants = {ChaosVariant::kModeSwitching};
  } else {
    opt.variants = {ChaosVariant::kStock, ChaosVariant::kHardened,
                    ChaosVariant::kRecoverable, ChaosVariant::kQuorum};
  }
  opt.n = 3;
  opt.timing = default_timing();
  opt.seeds = static_cast<int>(scaled(degrade ? 8 : 24, o.scale, 1));
  opt.base_seed = mix64(o.seed);
  opt.jobs = kJobs;
  // Keep every reproducible violation, so each can be classified.
  opt.max_findings = std::numeric_limits<int>::max();
  return opt;
}

/// Violations other than watchdog aborts.
int safety_violations(const ChaosSearchResult& res) {
  int aborts = 0;
  for (const ChaosFinding& f : res.findings) {
    aborts += f.result.verdict == ChaosVerdict::kAborted;
  }
  return res.violations - aborts;
}

/// Builds the grid kSetupRepeats times, appending each build's wall time.
std::vector<ChaosRunSpec> build_grid(const ChaosSearchOptions& opt,
                                     std::vector<double>& setup) {
  std::vector<ChaosRunSpec> grid;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    grid = chaos_search_grid(opt);
    setup.push_back(now_s() - t0);
  }
  return grid;
}

const char* name_of(bool degrade) {
  return degrade ? "degrade grid" : "chaos grid";
}

}  // namespace

void chaos_layers(const Options& o, Result& r, Spans& spans, bool degrade) {
  const std::string prefix = degrade ? "degrade." : "chaos.";
  const ChaosSearchOptions opt = search_options(o, degrade);
  Spans::Scope root(spans, name_of(degrade));
  std::vector<double> setup;
  const std::vector<ChaosRunSpec> grid = build_grid(opt, setup);
  r.set(prefix + "grid_setup_s", median(setup), "s");

  Spans::Scope search_span(spans, prefix + "search");
  const ChaosSearchResult res = run_chaos_search(opt);
  const double search = search_span.close();
  r.tally(static_cast<std::uint64_t>(res.runs),
          static_cast<std::uint64_t>(res.violations));
  r.check(safety_violations(res) == 0,
          std::string(name_of(degrade)) +
              " traced: zero chaos safety violations");
  if (res.violations > 0) std::printf("%s", res.summary().c_str());

  // Every spec alone, one at a time, attributed to its variant.
  std::vector<double> per_spec;
  std::map<std::string, double> per_variant;
  std::int64_t give_ups = 0;
  Tick worst_excess = std::numeric_limits<Tick>::min();
  int downgrades = 0;
  int upgrades = 0;
  {
    Spans::Scope all(spans, prefix + "specs");
    for (const ChaosRunSpec& spec : grid) {
      const std::string variant = chaos_variant_name(spec.variant);
      Spans::Scope one(spans, "chaos." + variant);
      const ChaosRunResult result = run_chaos(spec);
      const double s = one.close();
      per_spec.push_back(s);
      per_variant[variant] += s;
      give_ups += result.link_give_ups;
      if (result.verdict != ChaosVerdict::kAborted) {
        worst_excess = std::max(worst_excess, result.worst_excess);
      }
      downgrades += result.downgrades;
      upgrades += result.upgrades;
    }
  }
  double sum = 0;
  for (const double s : per_spec) sum += s;
  r.set(prefix + "spec_sum_s", sum, "s");
  r.set(prefix + "spec_p50_ms", 1e3 * median(per_spec), "ms");
  r.set(prefix + "spec_max_ms",
        1e3 * *std::max_element(per_spec.begin(), per_spec.end()), "ms");
  r.set(prefix + "search_efficiency", sum / (kJobs * search), "ratio");
  for (const auto& [variant, seconds] : per_variant) {
    r.set("chaos." + variant + "_s", seconds, "s");
  }
  if (degrade) {
    r.set("degrade.downgrades", downgrades, "count");
    r.set("degrade.upgrades", upgrades, "count");
  } else {
    r.set("fault.link_give_ups", static_cast<double>(give_ups), "count");
    std::printf("metric worst_excess_ticks = %lld ticks (worst latency minus "
                "its bound over the grid's completed specs)\n",
                static_cast<long long>(worst_excess));
  }
}

}  // namespace perfbench
