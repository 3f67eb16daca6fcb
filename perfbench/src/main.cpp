// The repository benchmark binary.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--scale F] [--spans FILE]
//   perfbench --selftest
//
// --trace 0 measures workload W end to end for S seconds with tracing off,
// checks its outputs, and prints the end-to-end metrics.  --trace 1 is the
// separate per-layer run: it times calls into each module on every
// workload's inputs and on two chaos grids, so each per-layer metric is
// measured on the inputs that exercise it.  It also reports the
// tracing overhead of W's main pass and writes its spans to FILE.  The last
// stdout line is the result object; the exit status is 0 only when every
// correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"single_1m", "shard_1024"};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      o.scale = std::atof(value);
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return false;
  }
  for (const char* w : kWorkloads) {
    if (o.workload == w) return o.seconds > 0 && o.scale > 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  return false;
}

void run_e2e(const Options& o, Result& r) {
  if (o.workload == "single_1m") {
    single_e2e(o, r);
  } else {
    shard_e2e(o, r);
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_layers(const Options& o, Result& r) {
  Spans spans;
  const double overheads[] = {
      single_layers(o, r, spans),
      shard_layers(o, r, spans),
  };
  chaos_layers(o, r, spans, false);
  chaos_layers(o, r, spans, true);
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    if (o.workload == kWorkloads[i]) {
      r.set("trace.overhead_frac", overheads[i], "ratio");
    }
  }
  if (!o.spans_path.empty()) {
    r.check(spans.write(o.spans_path), "spans written to " + o.spans_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const int failures = spans_selftest();
    std::printf("spans selftest: %d failures\n", failures);
    return failures == 0 ? 0 : 1;
  }
  Options o;
  if (!parse(argc, argv, o)) return 2;
  print_provenance(o);
  Result r;
  try {
    if (o.trace) {
      run_layers(o, r);
    } else {
      run_e2e(o, r);
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("no exception: ") + e.what());
  }
  if (r.attempted() == 0) r.tally(1, 1);  // nothing ran: count one failure
  print_result(r);
  return r.correct() ? 0 : 1;
}
