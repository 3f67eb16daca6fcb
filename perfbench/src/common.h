// Shared types of the repository benchmark: run options, the result a
// workload fills in, and the small measurement helpers every workload uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "harness/latency.h"

namespace perfbench {

/// Worker threads every parallel phase uses (the benchmark's load ceiling).
inline constexpr int kJobs = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured loop
  bool trace = false;   ///< per-layer run instead of the end-to-end run
  /// Size multiplier for every workload (1 = full size); the benchmark's own
  /// tests run at a small scale.
  double scale = 1;
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports: the verdict of every correctness check, the
/// attempted/failed tally and the metrics, in print order.
class Result {
 public:
  /// Records a correctness check; a failed one fails the run.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts `attempted` operations (or specs), `failed` of which failed.
  void tally(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Steady-clock seconds.
double now_s();

/// Median of `values`; 0 when empty.
double median(std::vector<double> values);

/// Prints the samples behind a median ("samples NAME n=.. median .. min ..
/// max .. [each]") and returns the median.
double summarize(const char* name, const std::vector<double>& values);

/// This process's resident-set high-water mark in MB.
double peak_rss_mb();

/// Scales a full-size count by `scale`, never below `floor`.
std::size_t scaled(std::size_t full, double scale, std::size_t floor);

/// The paper's default system: n = 4, d = 1000, u = 400, eps = 300, X = 0.
linbound::SystemTiming default_timing();

/// Prints p50 and the tail latency of one operation class against its
/// bound: the tail is the highest of p90, p99, p99.9, ... that leaves at
/// least ten samples beyond it.  Returns false when the class exceeded the
/// bound (or has no samples).
bool report_latency(const char* prefix, const linbound::LatencyReport& report,
                    linbound::OpClass cls, linbound::Tick bound);

/// Prints one provenance line (build type, compiler, nproc, seed and the
/// measured effective parallelism of kJobs busy threads).
void print_provenance(const Options& options);

/// Prints the human-readable metric table and then, as the last line, the
/// result object {"correct", "attempted", "failed", "metrics"}.
void print_result(const Result& result);

}  // namespace perfbench
