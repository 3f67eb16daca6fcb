#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"

namespace perfbench {

using linbound::LatencyReport;
using linbound::LatencySummary;
using linbound::OpClass;
using linbound::Tick;

void Result::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  correct_ = correct_ && ok;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::tally(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double summarize(const char* name, const std::vector<double>& values) {
  const double mid = median(values);
  std::printf("samples %s n=%zu median %.6g min %.6g max %.6g [", name,
              values.size(), mid,
              values.empty() ? 0 : *std::min_element(values.begin(), values.end()),
              values.empty() ? 0 : *std::max_element(values.begin(), values.end()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.6g", i ? " " : "", values[i]);
  }
  std::printf("]\n");
  return mid;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t scaled(std::size_t full, double scale, std::size_t floor) {
  const auto n = static_cast<std::size_t>(std::llround(full * scale));
  return std::max(n, floor);
}

linbound::SystemTiming default_timing() {
  linbound::SystemTiming t;
  t.d = 1000;
  t.u = 400;
  t.eps = 300;  // optimal skew (1 - 1/n) u for n = 4
  return t;
}

bool report_latency(const char* prefix, const LatencyReport& report,
                    OpClass cls, Tick bound) {
  const auto it = report.by_class.find(cls);
  if (it == report.by_class.end() || it->second.count == 0) {
    std::printf("%s: no samples\n", prefix);
    return false;
  }
  const LatencySummary& s = it->second;
  const auto n = static_cast<double>(s.count);
  double tail = 50;
  for (double p = 90; n * (100 - p) / 100 >= 10; p = 100 - (100 - p) / 10) {
    tail = p;
  }
  std::printf(
      "metric %s_p50_ticks = %lld ticks; %s_tail_ticks = %lld ticks "
      "(p%.6g of %lld samples); max %lld, paper bound %lld\n",
      prefix, static_cast<long long>(s.percentile(50)), prefix,
      static_cast<long long>(s.percentile(tail)), tail,
      static_cast<long long>(s.count), static_cast<long long>(s.max),
      static_cast<long long>(bound));
  return s.max <= bound;
}

namespace {

/// Fixed CPU-bound work; returns a value so it cannot be optimized away.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Runs `spin(work)` on `threads` threads at once; returns the wall time.
double spin_threads(int threads, std::uint64_t work,
                    std::atomic<std::uint64_t>& sink) {
  const double t0 = now_s();
  {
    std::vector<std::jthread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&sink, work] { sink += spin(work); });
    }
  }
  return now_s() - t0;
}

/// kJobs threads each run the same spin as one thread alone; effective
/// parallelism = kJobs * t(one) / t(all).  A warm-up round first wakes idle
/// virtual CPUs, which otherwise read as missing parallelism.  A contended
/// box reads below kJobs.
double effective_parallelism() {
  constexpr std::uint64_t kWork = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  spin_threads(kJobs, kWork, sink);
  const double one = spin_threads(1, kWork, sink);
  const double all = spin_threads(kJobs, kWork, sink);
  return all > 0 && sink.load() != 0 ? kJobs * one / all : 0;
}

}  // namespace

void print_provenance(const Options& options) {
  std::printf(
      "provenance {\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %u, \"jobs\": %d, \"effective_parallelism\": %.3f, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"scale\": %g, \"trace\": %d}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), kJobs, effective_parallelism(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.scale, options.trace ? 1 : 0);
}

void print_result(const Result& result) {
  for (const Metric& m : result.metrics()) {
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  const auto& metrics = result.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
