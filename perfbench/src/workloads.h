// The benchmark's workloads.  Each has an end-to-end entry point, which
// measures the workload for Options::seconds with tracing off and checks its
// outputs afterwards, and a per-layer entry point for the traced run, which
// times calls into each module's public functions.  The chaos grids have a
// per-layer entry point only.
#pragma once

#include "common.h"
#include "spans.h"

namespace perfbench {

/// Per-layer entry points return the tracing overhead of their main pass:
/// traced wall / untraced wall - 1.
void single_e2e(const Options& options, Result& result);
double single_layers(const Options& options, Result& result, Spans& spans);

void shard_e2e(const Options& options, Result& result);
double shard_layers(const Options& options, Result& result, Spans& spans);

/// Traced run only: `degrade` profiles the mode-switching grid instead of
/// the stock/hardened/recoverable/quorum one.
void chaos_layers(const Options& options, Result& result, Spans& spans,
                  bool degrade);

}  // namespace perfbench
