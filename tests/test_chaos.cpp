// End-to-end validation of the chaos-search engine: spec validation, the
// watchdog, oracle gating, search determinism, and -- the acceptance gate --
// each planted bug-mutant found by the search, shrunk to a handful of
// decisions, and replayed byte-identically from its repro bundle.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "chaos/chaos.h"
#include "chaos/search.h"
#include "chaos/shrink.h"

namespace linbound {
namespace {

ChaosRunSpec base_spec() {
  ChaosRunSpec spec;
  spec.n = 3;
  spec.timing = SystemTiming{1000, 400, 300};
  spec.ops_per_client = 4;
  spec.delay_seed = 21;
  spec.workload_seed = 22;
  return spec;
}

TEST(ChaosSpecValidation, RejectsNonsense) {
  {
    ChaosRunSpec s = base_spec();
    s.n = 1;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.x = s.timing.d + s.timing.eps;  // past d+eps-u
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.event_budget = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.mutant = ChaosMutant::kNarrowWaits;  // requires hardened
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.variant = ChaosVariant::kHardened;
    s.mutant = ChaosMutant::kEagerMop;  // requires stock
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ChaosRunSpec s = base_spec();
    s.faults.drop_p = 1.5;  // fault-layer validation is hooked in
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(base_spec().validate());
}

TEST(ChaosRun, CleanRunIsOkAndDeterministic) {
  const ChaosRunSpec spec = base_spec();
  const ChaosRunResult a = run_chaos(spec);
  EXPECT_EQ(a.verdict, ChaosVerdict::kOk) << a.detail;
  EXPECT_EQ(a.status, RunStatus::kComplete);
  EXPECT_TRUE(a.linearizable);
  EXPECT_TRUE(a.assumptions_clean);
  EXPECT_TRUE(a.script.empty());

  const ChaosRunResult b = run_chaos(spec);
  EXPECT_EQ(b.trace_hash, a.trace_hash);
}

TEST(ChaosRun, EventBudgetWatchdogAbortsDeterministically) {
  ChaosRunSpec spec = base_spec();
  spec.event_budget = 40;  // far below what the workload needs
  const ChaosRunResult a = run_chaos(spec);
  EXPECT_EQ(a.verdict, ChaosVerdict::kAborted) << a.detail;
  EXPECT_EQ(a.status, RunStatus::kAborted);
  EXPECT_FALSE(a.wall_clock_tripped);  // event budget, not the wall clock
  EXPECT_TRUE(a.reproducible_violation());
  // The cut lands after exactly `event_budget` events, so the abort itself
  // is deterministic.
  EXPECT_EQ(run_chaos(spec).trace_hash, a.trace_hash);
}

TEST(ChaosRun, OverInjectionStaysOutOfCoverage) {
  // A stall window breaks every variant's model: whatever the outcome, the
  // oracles must attribute it to the fault, not the implementation.
  ChaosRunSpec spec = base_spec();
  spec.faults.stalls.push_back(StallWindow{0, 1000, 9000});
  const ChaosRunResult r = run_chaos(spec);
  EXPECT_FALSE(r.assumptions_clean);
  EXPECT_NE(r.verdict, ChaosVerdict::kNonLinearizable);
  EXPECT_NE(r.verdict, ChaosVerdict::kBoundViolated);
}

TEST(ChaosSearch, GridIsAPureFunctionOfOptions) {
  ChaosSearchOptions options;
  options.seeds = 2;
  const auto a = chaos_search_grid(options);
  const auto b = chaos_search_grid(options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].delay_seed, b[i].delay_seed);
    EXPECT_EQ(a[i].workload_seed, b[i].workload_seed);
    EXPECT_EQ(a[i].faults.seed, b[i].faults.seed);
  }
}

TEST(ChaosSearch, RealImplementationSurvivesASlice) {
  // A thin slice of the hunt grid (the full sweep lives in bench_chaos /
  // CI): the real implementation must come out clean.
  ChaosSearchOptions options;
  options.seeds = 2;
  options.jobs = 2;
  const ChaosSearchResult result = run_chaos_search(options);
  EXPECT_GT(result.runs, 0);
  EXPECT_EQ(result.violations, 0) << result.summary();
}

/// The acceptance gate: every planted mutant is found by the seeded search,
/// shrunk to at most 10 decisions, and its bundle replays to the identical
/// verdict and trace hash.
class PlantedMutantTest : public ::testing::TestWithParam<ChaosMutant> {};

TEST_P(PlantedMutantTest, FoundShrunkAndReplayedExactly) {
  ChaosSearchOptions options;
  options.mutant = GetParam();
  options.seeds = 12;  // mirrors bench_chaos --plant
  options.base_seed = 3405691582ull;
  options.jobs = 2;
  options.max_findings = 2;
  const ChaosSearchResult result = run_chaos_search(options);
  ASSERT_GT(result.reproducible, 0)
      << chaos_mutant_name(GetParam()) << " slipped through:\n"
      << result.summary();
  ASSERT_FALSE(result.findings.empty());

  const ChaosFinding& finding = result.findings.front();
  ShrinkStats stats;
  const FaultScript minimal = shrink_fault_script(
      finding.spec, finding.result.script, finding.result.verdict, &stats);
  EXPECT_LE(minimal.size(), 10u) << "script did not shrink far enough";
  EXPECT_LE(minimal.size(), stats.initial_decisions);

  // Bundle round-trip: serialized text parses back and replays to exactly
  // the expected verdict and hash.
  const ChaosRunResult replayed = replay_chaos(finding.spec, minimal);
  EXPECT_EQ(replayed.verdict, finding.result.verdict);
  ReproBundle bundle;
  bundle.spec = finding.spec;
  bundle.script = minimal;
  bundle.expected_verdict = replayed.verdict;
  bundle.expected_hash = replayed.trace_hash;
  std::string error;
  const auto loaded =
      repro_bundle_from_string(repro_bundle_to_string(bundle), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const ReplayOutcome outcome = replay_bundle(*loaded);
  EXPECT_TRUE(outcome.verdict_matches)
      << chaos_verdict_name(outcome.result.verdict) << " vs expected "
      << chaos_verdict_name(bundle.expected_verdict);
  EXPECT_TRUE(outcome.hash_matches);
}

INSTANTIATE_TEST_SUITE_P(Mutants, PlantedMutantTest,
                         ::testing::Values(ChaosMutant::kEagerMop,
                                           ChaosMutant::kEagerAop,
                                           ChaosMutant::kNarrowWaits),
                         [](const auto& info) {
                           std::string name = chaos_mutant_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ChaosRepro, RecoverableRejoinLivelockQuiesces) {
  // p0, p2 and p1 crash and recover in turn (max_down = 1 throughout); two
  // dropped frames lose p0's first JoinRequests, and the last joined copy
  // dies with p1.  Every replica is then mid-rejoin and none can answer a
  // JoinRequest.  Unbounded retries re-broadcast them forever and the
  // watchdog aborted the run; bounded by the link's max_attempts, the run
  // quiesces with the deferred operations pending, and the judge rules on
  // it (out of coverage: the run crashed and dropped).
  const std::string path =
      std::string(LINBOUND_TEST_DATA_DIR) +
      "/recoverable_rejoin_livelock.chaosrepro";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::string error;
  const auto bundle = read_repro_bundle(in, &error);
  ASSERT_TRUE(bundle.has_value()) << error;
  const ReplayOutcome outcome = replay_bundle(*bundle);
  EXPECT_NE(outcome.result.verdict, ChaosVerdict::kAborted)
      << outcome.result.detail;
  EXPECT_EQ(outcome.result.status, RunStatus::kStalled);
  EXPECT_EQ(outcome.result.link_give_ups, 0);
  EXPECT_TRUE(outcome.verdict_matches)
      << chaos_verdict_name(outcome.result.verdict) << " vs expected "
      << chaos_verdict_name(bundle->expected_verdict);
  EXPECT_TRUE(outcome.hash_matches)
      << "replayed trace hash " << outcome.result.trace_hash;
}

TEST(ReproBundleIo, RejectsMalformedBundles) {
  EXPECT_FALSE(repro_bundle_from_string("not a bundle").has_value());
  std::string error;
  EXPECT_FALSE(
      repro_bundle_from_string("chaosrepro v1\nbogus line\n", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // A spec section without its faultscript is incomplete.
  ReproBundle bundle;
  bundle.spec = base_spec();
  std::string text = repro_bundle_to_string(bundle);
  text = text.substr(0, text.find("faultscript"));
  EXPECT_FALSE(repro_bundle_from_string(text, &error).has_value());
}

TEST(ReproBundleIo, RoundTripsAFullSpec) {
  ReproBundle bundle;
  bundle.spec = base_spec();
  bundle.spec.variant = ChaosVariant::kHardened;
  bundle.spec.faults.drop_p = 0.125;
  bundle.spec.faults.links.push_back(LinkFault{0, 1, 0.25, 0.5, 300});
  bundle.spec.faults.stalls.push_back(StallWindow{2, 1000, 1500});
  PartitionWindow w;
  w.from = 2000;
  w.until = 2600;
  w.component_of = {0, 1, 1};
  bundle.spec.faults.partitions.push_back(w);
  bundle.script.decisions.push_back({7, FaultDecision{true, 0, 0}});
  bundle.expected_verdict = ChaosVerdict::kNonLinearizable;
  bundle.expected_hash = 0xfeedface;

  std::string error;
  const auto loaded =
      repro_bundle_from_string(repro_bundle_to_string(bundle), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->spec.variant, ChaosVariant::kHardened);
  EXPECT_EQ(loaded->spec.faults.drop_p, 0.125);
  ASSERT_EQ(loaded->spec.faults.links.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.links[0].delay_max, 300);
  ASSERT_EQ(loaded->spec.faults.partitions.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.partitions[0].component_of,
            (std::vector<int>{0, 1, 1}));
  ASSERT_EQ(loaded->spec.faults.stalls.size(), 1u);
  EXPECT_EQ(loaded->spec.faults.stalls[0].pid, 2);
  EXPECT_TRUE(loaded->script == bundle.script);
  EXPECT_EQ(loaded->expected_verdict, ChaosVerdict::kNonLinearizable);
  EXPECT_EQ(loaded->expected_hash, 0xfeedfaceu);
}

}  // namespace
}  // namespace linbound
