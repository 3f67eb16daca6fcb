// Segmented + parallel linearizability checking.
//
// Two orthogonal accelerations over the serial Wing&Gong-style search in
// lin_checker.cpp, both returning byte-identical verdicts, witnesses and
// explanations to it (regression-tested in tests/test_segmented_checker.cpp):
//
//  1. Quiescent-cut segmentation (segment_history, checker/history.h).
//     Every completed operation of segment i strictly real-time-precedes
//     every completed operation of segment i+1, so any linearization is a
//     concatenation of per-segment linearizations.  The search runs segment
//     by segment, threading the object state (and the pending-taken set)
//     across each cut; when a downstream segment fails for a threaded
//     state, the upstream search backtracks and tries the next distinct
//     final state -- exactly what the serial search does, but with
//     per-segment memo tables instead of one monolithic one.
//
//  2. Parallel intra-segment subtree search.  When the fan-out at a
//     segment's root reaches CheckOptions::min_parallel_fanout and jobs > 1,
//     the top levels of the decision tree are expanded (in exact serial DFS
//     order) into prefix tasks executed on the ParallelSweepExecutor pool.
//     Each task owns a private dead-state memo and a detached object state,
//     so workers share nothing but three monotonic atomics: the global
//     state budget, the memo-hit counter, and the best-success index used
//     for cooperative cancellation.  Results merge in canonical prefix
//     order: the first successful prefix yields the witness (identical to
//     the serial first witness) and the first non-empty explanation at or
//     before it yields the explanation.  Tasks ordered after the first
//     success may be cancelled -- their results are never read, so
//     cancellation cannot perturb the output.
//
// Determinism contract: verdict, witness and explanation are identical at
// any jobs value.  The diagnostic counters (states_explored, memo_hits) are
// exact for jobs <= 1 and best-effort aggregates for jobs > 1, where
// cancelled tasks may or may not have burned states before noticing the
// cancellation flag.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/lin_checker.h"
#include "common/parallel.h"
#include "spec/snapshot.h"

namespace linbound {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u64(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= x & 0xff;
    h *= kFnvPrime;
    x >>= 8;
  }
}

int active_processes(const History& history) {
  int active = 0;
  for (int p = 0; p < history.process_count(); ++p) {
    if (!history.by_process(p).empty()) ++active;
  }
  return active;
}

constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

/// State shared by every walker (the coordinating one and the subtree
/// tasks) of one checker call.
struct SharedCtx {
  const ObjectModel& model;
  const History& history;
  const std::vector<HistorySegment>& segments;
  /// Per segment s: the minimum response time over all operations in
  /// segments AFTER s (kNoTime when none remain).  A pending invocation is
  /// blocked exactly when some remaining completed operation responds
  /// strictly before it; this suffix minimum answers that query for all
  /// not-yet-started segments at once.
  const std::vector<Tick>& later_min_resp;
  const std::vector<PendingInvocation>& pending;
  const CheckLimits limits;
  const std::size_t min_parallel_fanout;
  const int jobs;
  /// Stack to give subtree-task threads (0 = platform default): a task
  /// walks from its split segment to the end of the history, so its
  /// recursion depth is bounded only by the total operation count.
  const std::size_t worker_stack_bytes;

  std::atomic<std::size_t> states{0};
  std::atomic<std::size_t> memo_hits{0};
  /// Dead-memo entries retained across the whole call (they are never
  /// evicted, so the running count is also the peak -- the offline
  /// checker's resident footprint for CheckResult::max_resident_states).
  std::atomic<std::size_t> resident{0};
  std::atomic<bool> aborted{false};
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> seg_states;
  std::size_t parallel_tasks = 0;  // written by the coordinating thread only

  SharedCtx(const ObjectModel& m, const History& h,
            const std::vector<HistorySegment>& segs,
            const std::vector<Tick>& lmr,
            const std::vector<PendingInvocation>& pend,
            const CheckOptions& options)
      : model(m),
        history(h),
        segments(segs),
        later_min_resp(lmr),
        pending(pend),
        limits(options.limits),
        min_parallel_fanout(options.min_parallel_fanout),
        jobs(resolve_jobs(options.jobs)),
        worker_stack_bytes(deep_search_stack_bytes(h.size() + pend.size())) {
    seg_states.reserve(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) {
      seg_states.push_back(std::make_unique<std::atomic<std::size_t>>(0));
    }
  }
};

/// What one subtree task reports back to the merge step.
struct TaskOutcome {
  enum Status : std::uint8_t { kFailed, kSucceeded, kCancelled };
  Status status = kFailed;
  std::vector<std::size_t> suffix;  ///< witness continuation from the prefix
  std::string explanation;          ///< task-local first mismatch
};

/// One walker = one serial depth-first search owning its own frontier,
/// pending-taken set and per-segment memo tables.  The coordinating walker
/// may hand whole subtrees to task walkers; task walkers never re-split.
class Walker {
 public:
  Walker(SharedCtx& ctx, bool in_task, std::size_t task_index,
         const std::atomic<std::size_t>* cancel_best)
      : ctx_(ctx),
        in_task_(in_task),
        task_index_(task_index),
        cancel_best_(cancel_best),
        frontier_(static_cast<std::size_t>(ctx.history.process_count()), 0),
        pending_taken_(ctx.pending.size(), false),
        dead_(ctx.segments.size()) {}

  /// Search segments s.. to completion from `state`.  On success chosen()
  /// holds the witness continuation picked by this walker.
  bool solve(std::size_t s, Snapshot& state) {
    while (s < ctx_.segments.size() && seg_complete(s)) ++s;
    if (s == ctx_.segments.size()) return true;
    // Split only when the segment has enough work to amortize task setup
    // (op_count >= 8 is a perf heuristic only -- the output is identical
    // either way) and enough root fan-out to spread.
    if (!in_task_ && ctx_.jobs > 1 && ctx_.segments[s].op_count >= 8 &&
        fanout(s) >= ctx_.min_parallel_fanout) {
      return solve_parallel(s, state);
    }
    return dfs(s, state);
  }

  const std::vector<std::size_t>& chosen() const { return chosen_; }
  const std::string& explanation() const { return explanation_; }
  std::size_t memo_hits() const { return memo_hits_; }
  bool cancelled() const { return cancelled_; }

  void restore(std::vector<std::size_t> frontier,
               std::vector<bool> pending_taken) {
    frontier_ = std::move(frontier);
    pending_taken_ = std::move(pending_taken);
  }

 private:
  // --- shared-state checks --------------------------------------------------

  bool should_unwind() {
    if (ctx_.aborted.load(std::memory_order_relaxed)) {
      cancelled_ = true;
      return true;
    }
    if (cancel_best_ != nullptr &&
        cancel_best_->load(std::memory_order_relaxed) < task_index_) {
      cancelled_ = true;
      return true;
    }
    return false;
  }

  void count_state(std::size_t s) {
    const std::size_t n =
        ctx_.states.fetch_add(1, std::memory_order_relaxed) + 1;
    ctx_.seg_states[s]->fetch_add(1, std::memory_order_relaxed);
    if (n > ctx_.limits.max_states) {
      ctx_.aborted.store(true, std::memory_order_relaxed);
      detail::throw_state_budget_exceeded(ctx_.limits.max_states, n, s,
                                          ctx_.segments.size(),
                                          ctx_.history.size());
    }
  }

  // --- frontier / eligibility ----------------------------------------------

  bool seg_complete(std::size_t s) const {
    const HistorySegment& seg = ctx_.segments[s];
    for (std::size_t p = 0; p < frontier_.size(); ++p) {
      if (frontier_[p] < seg.end[p]) return false;
    }
    return true;
  }

  /// Frontier op of process p within segment s, or nullopt if p has no
  /// remaining operation there.
  std::optional<std::size_t> front(std::size_t s, std::size_t p) const {
    if (frontier_[p] >= ctx_.segments[s].end[p]) return std::nullopt;
    return ctx_.history.by_process(static_cast<ProcessId>(p))[frontier_[p]];
  }

  /// Can an operation invoked at `inv` linearize next?  Only same-segment
  /// operations can block: every earlier segment is fully consumed and
  /// every later operation is invoked strictly after all of this segment's
  /// responses (the cut condition), so its response can never precede a
  /// same-segment invocation.
  bool eligible_at(std::size_t s, Tick inv,
                   std::optional<std::size_t> self) const {
    for (std::size_t p = 0; p < frontier_.size(); ++p) {
      auto f = front(s, p);
      if (!f || (self && *f == *self)) continue;
      if (ctx_.history.ops()[*f].response < inv) return false;
    }
    return true;
  }

  /// Pending invocations are additionally blocked by *later* segments:
  /// their invoke time is not bounded by the segment, so a remaining
  /// operation in a not-yet-started segment may respond before it.  Within
  /// a process responses are invoke-ordered, so the suffix minimum over
  /// later segments decides exactly what the serial full-frontier scan
  /// decides.
  bool pending_eligible(std::size_t s, Tick inv) const {
    const Tick later = ctx_.later_min_resp[s];
    if (later != kNoTime && later < inv) return false;
    return eligible_at(s, inv, std::nullopt);
  }

  /// Branch count at the current node of segment s: eligible untaken
  /// pending invocations plus eligible process fronts.  The split
  /// heuristic; depends only on walker state, so the split decision is
  /// deterministic.
  std::size_t fanout(std::size_t s) const {
    std::size_t count = 0;
    for (std::size_t q = 0; q < ctx_.pending.size(); ++q) {
      if (!pending_taken_[q] && pending_eligible(s, ctx_.pending[q].invoke)) {
        ++count;
      }
    }
    for (std::size_t p = 0; p < frontier_.size(); ++p) {
      auto f = front(s, p);
      if (f && eligible_at(s, ctx_.history.ops()[*f].invoke, f)) ++count;
    }
    return count;
  }

  // --- memo -----------------------------------------------------------------

  struct DeadEntry {
    std::vector<std::size_t> frontier;
    std::vector<bool> pending_taken;
    Snapshot state;
  };

  std::uint64_t memo_hash(const Snapshot& state) const {
    std::uint64_t h = kFnvOffset;
    for (std::size_t f : frontier_) fnv_u64(h, f);
    std::uint64_t bits = 0;
    for (std::size_t q = 0; q < pending_taken_.size(); ++q) {
      bits = (bits << 1) | (pending_taken_[q] ? 1u : 0u);
      if ((q & 63u) == 63u) {
        fnv_u64(h, bits);
        bits = 0;
      }
    }
    if (!pending_taken_.empty()) fnv_u64(h, bits);
    fnv_u64(h, state.fingerprint());
    return h;
  }

  bool known_dead(std::size_t s, std::uint64_t h, const Snapshot& state) const {
    auto it = dead_[s].find(h);
    if (it == dead_[s].end()) return false;
    for (const DeadEntry& e : it->second) {
      if (e.frontier == frontier_ && e.pending_taken == pending_taken_ &&
        e.state.equals(state)) {
      return true;
      }
    }
    return false;
  }

  // --- explanations ---------------------------------------------------------

  void record_explanation(std::string text) {
    if (explanation_.empty() && !text.empty()) explanation_ = std::move(text);
  }

  std::string mismatch_text(const HistoryOp& op, const Snapshot& before,
                            const Value& determined) const {
    std::ostringstream os;
    os << "p" << op.proc << " " << ctx_.model.describe(op.op) << " returned "
       << op.ret.to_string() << " but state " << before.to_string()
       << " determines " << determined.to_string();
    return os.str();
  }

  static constexpr const char* kNoCandidateText =
      "no operation is eligible to linearize next (real-time order cycle)";

  // --- the serial in-segment search ----------------------------------------

  bool dfs(std::size_t s, Snapshot& state) {
    if (should_unwind()) return false;
    if (seg_complete(s)) return solve(s + 1, state);
    const std::uint64_t h = memo_hash(state);
    if (known_dead(s, h, state)) {
      ++memo_hits_;
      return false;
    }
    count_state(s);

    for (std::size_t q = 0; q < ctx_.pending.size(); ++q) {
      if (pending_taken_[q]) continue;
      if (!pending_eligible(s, ctx_.pending[q].invoke)) continue;
      Snapshot next = state;
      next.apply(ctx_.pending[q].op);
      pending_taken_[q] = true;
      if (dfs(s, next)) return true;
      pending_taken_[q] = false;
    }

    bool any_candidate = false;
    for (std::size_t p = 0; p < frontier_.size(); ++p) {
      auto f = front(s, p);
      if (!f) continue;
      const HistoryOp& op = ctx_.history.ops()[*f];
      if (!eligible_at(s, op.invoke, f)) continue;
      any_candidate = true;
      Snapshot next = state;
      const bool accessor =
          ctx_.model.classify(op.op) == OpClass::kPureAccessor;
      const Value determined =
          accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        // Only the first explanation is kept: build text only until then.
        if (explanation_.empty()) {
          explanation_ = mismatch_text(op, state, determined);
        }
        continue;
      }
      ++frontier_[p];
      chosen_.push_back(*f);
      if (dfs(s, next)) return true;
      chosen_.pop_back();
      --frontier_[p];
    }

    if (!any_candidate) record_explanation(kNoCandidateText);
    if (cancelled_) return false;  // partial search: do not poison the memo
    dead_[s][h].push_back(DeadEntry{frontier_, pending_taken_, state});
    ctx_.resident.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // --- parallel subtree search ---------------------------------------------

  /// One entry of the merge list, in exact serial DFS order: either an
  /// inline mismatch discovered while expanding the prefix tree, or a leaf
  /// prefix to be searched by a task.
  struct Item {
    std::string inline_expl;  // non-leaf: a mismatch at the split levels
    bool is_leaf = false;
    std::vector<std::size_t> frontier;
    std::vector<bool> pending_taken;
    std::vector<std::size_t> path;  // completed ops chosen from the root
    Snapshot state;                 // detached: uniquely owned by the leaf
    std::size_t task = kNoTask;     // index into the task array
  };

  void make_leaf(std::size_t s, const Snapshot& state,
                 const std::vector<std::size_t>& path,
                 std::vector<Item>& items) {
    Item leaf;
    leaf.is_leaf = true;
    leaf.frontier = frontier_;
    leaf.pending_taken = pending_taken_;
    leaf.path = path;
    // Detach the object state so no two tasks ever share an ObjectState
    // (Snapshot's copy-on-write bookkeeping is single-thread-only).
    leaf.state = Snapshot(state.to_state());
    (void)s;
    items.push_back(std::move(leaf));
  }

  /// Expand the top `depth_left` levels under the current node of segment
  /// s, emitting merge items in serial DFS order.  Mirrors one dfs() node:
  /// pending moves first, then process fronts in pid order, mismatches as
  /// inline items, and the no-candidate diagnostic last.  Children that
  /// complete the segment become leaves immediately (their task crosses the
  /// cut itself), so expansion never outruns a boundary.
  void expand(std::size_t s, std::size_t depth_left, Snapshot& state,
              std::vector<std::size_t>& path, std::vector<Item>& items) {
    count_state(s);
    for (std::size_t q = 0; q < ctx_.pending.size(); ++q) {
      if (pending_taken_[q]) continue;
      if (!pending_eligible(s, ctx_.pending[q].invoke)) continue;
      Snapshot next = state;
      next.apply(ctx_.pending[q].op);
      pending_taken_[q] = true;
      if (depth_left > 1) {
        expand(s, depth_left - 1, next, path, items);
      } else {
        make_leaf(s, next, path, items);
      }
      pending_taken_[q] = false;
    }

    bool any_candidate = false;
    for (std::size_t p = 0; p < frontier_.size(); ++p) {
      auto f = front(s, p);
      if (!f) continue;
      const HistoryOp& op = ctx_.history.ops()[*f];
      if (!eligible_at(s, op.invoke, f)) continue;
      any_candidate = true;
      Snapshot next = state;
      const bool accessor =
          ctx_.model.classify(op.op) == OpClass::kPureAccessor;
      const Value determined =
          accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        Item miss;
        miss.inline_expl = mismatch_text(op, state, determined);
        items.push_back(std::move(miss));
        continue;
      }
      ++frontier_[p];
      path.push_back(*f);
      if (depth_left > 1 && !seg_complete(s)) {
        expand(s, depth_left - 1, next, path, items);
      } else {
        make_leaf(s, next, path, items);
      }
      path.pop_back();
      --frontier_[p];
    }

    if (!any_candidate) {
      Item miss;
      miss.inline_expl = kNoCandidateText;
      items.push_back(std::move(miss));
    }
  }

  /// Fan the subtree rooted at the current node of segment s out over the
  /// worker pool.  Byte-identical to dfs(s, state) by construction: items
  /// are generated and merged in serial DFS order.
  bool solve_parallel(std::size_t s, Snapshot& state) {
    const std::uint64_t h = memo_hash(state);
    if (known_dead(s, h, state)) {
      ++memo_hits_;
      return false;
    }

    // Pick the split depth so the leaf count comfortably overfills the
    // pool; deeper levels stay inside the tasks.
    const std::size_t width = std::max<std::size_t>(fanout(s), 2);
    const std::size_t target =
        std::max<std::size_t>(8, 4 * static_cast<std::size_t>(ctx_.jobs));
    std::size_t depth = 1;
    std::size_t cap = width;
    while (cap < target && depth < 6) {
      cap *= width;
      ++depth;
    }

    std::vector<Item> items;
    std::vector<std::size_t> path;
    expand(s, depth, state, path, items);

    std::vector<Item*> leaves;
    for (Item& item : items) {
      if (item.is_leaf) {
        item.task = leaves.size();
        leaves.push_back(&item);
      }
    }
    ctx_.parallel_tasks += leaves.size();

    std::atomic<std::size_t> best{kNoTask};
    const ParallelSweepExecutor executor(ctx_.jobs, ctx_.worker_stack_bytes);
    SharedCtx& ctx = ctx_;
    std::vector<TaskOutcome> outcomes = executor.map<TaskOutcome>(
        leaves.size(), [&ctx, &leaves, &best, s](std::size_t i) {
          TaskOutcome out;
          if (best.load(std::memory_order_relaxed) < i) {
            out.status = TaskOutcome::kCancelled;
            return out;
          }
          Walker worker(ctx, /*in_task=*/true, i, &best);
          const Item& leaf = *leaves[i];
          worker.restore(leaf.frontier, leaf.pending_taken);
          Snapshot st = leaf.state;
          const bool ok = worker.solve(s, st);
          if (worker.cancelled()) {
            out.status = TaskOutcome::kCancelled;
            return out;
          }
          ctx.memo_hits.fetch_add(worker.memo_hits(),
                                  std::memory_order_relaxed);
          out.status = ok ? TaskOutcome::kSucceeded : TaskOutcome::kFailed;
          out.explanation = worker.explanation();
          if (ok) out.suffix = worker.chosen();
          if (ok) {
            std::size_t cur = best.load(std::memory_order_relaxed);
            while (i < cur &&
                   !best.compare_exchange_weak(cur, i,
                                               std::memory_order_relaxed)) {
            }
          }
          return out;
        });

    // Merge in serial DFS order: the first successful leaf carries the
    // witness, and the first non-empty explanation at or before it is the
    // one the serial search would have recorded.  Items past the first
    // success are unreachable serially and are never read (they are the
    // only ones cancellation may have truncated).
    for (const Item& item : items) {
      if (!item.is_leaf) {
        record_explanation(item.inline_expl);
        continue;
      }
      const TaskOutcome& out = outcomes[item.task];
      record_explanation(out.explanation);
      if (out.status == TaskOutcome::kSucceeded) {
        chosen_.insert(chosen_.end(), item.path.begin(), item.path.end());
        chosen_.insert(chosen_.end(), out.suffix.begin(), out.suffix.end());
        return true;
      }
    }
    dead_[s][h].push_back(DeadEntry{frontier_, pending_taken_, state});
    ctx_.resident.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  SharedCtx& ctx_;
  const bool in_task_;
  const std::size_t task_index_;
  const std::atomic<std::size_t>* cancel_best_;
  bool cancelled_ = false;

  std::vector<std::size_t> frontier_;
  std::vector<bool> pending_taken_;
  std::vector<std::size_t> chosen_;
  std::string explanation_;
  std::size_t memo_hits_ = 0;
  std::vector<std::unordered_map<std::uint64_t, std::vector<DeadEntry>>> dead_;
};

CheckResult run_segmented(const ObjectModel& model, const History& history,
                          const std::vector<PendingInvocation>& pending,
                          const CheckOptions& options) {
  CheckResult result;
  if (history.size() == 0 && pending.empty()) {
    result.ok = true;
    result.early_exit = true;
    return result;
  }
  if (history.size() == 0) {
    // Only pending invocations: omitting every one linearizes the (empty)
    // completed history, mirroring the serial search's immediate accept.
    result.ok = true;
    return result;
  }
  if (pending.empty() && active_processes(history) <= 1) {
    return detail::replay_single_process(model, history);
  }

  std::vector<HistorySegment> segments;
  if (options.segment) {
    segments = segment_history(history, pending);
  } else {
    HistorySegment all;
    const std::size_t procs =
        static_cast<std::size_t>(history.process_count());
    all.begin.assign(procs, 0);
    all.end.assign(procs, 0);
    for (std::size_t p = 0; p < procs; ++p) {
      all.end[p] = history.by_process(static_cast<ProcessId>(p)).size();
    }
    all.op_count = history.size();
    all.min_response = kNoTime;
    for (const HistoryOp& op : history.ops()) {
      if (all.min_response == kNoTime || op.response < all.min_response) {
        all.min_response = op.response;
      }
    }
    segments.push_back(std::move(all));
  }

  // Suffix minimum of per-segment min response, for pending eligibility.
  std::vector<Tick> later_min_resp(segments.size(), kNoTime);
  for (std::size_t s = segments.size(); s-- > 1;) {
    Tick later = later_min_resp[s];
    const Tick own = segments[s].min_response;
    if (later == kNoTime || (own != kNoTime && own < later)) later = own;
    later_min_resp[s - 1] = later;
  }

  SharedCtx ctx(model, history, segments, later_min_resp, pending, options);
  Walker walker(ctx, /*in_task=*/false, 0, nullptr);
  Snapshot state = Snapshot::initial(model);
  // The search recurses once per linearized operation (dfs crosses segment
  // boundaries through solve), so histories past the default thread stack
  // run on an explicitly sized one; subtree tasks get the same treatment
  // through SharedCtx::worker_stack_bytes.
  if (ctx.worker_stack_bytes == 0) {
    result.ok = walker.solve(0, state);
  } else {
    run_on_stack(ctx.worker_stack_bytes,
                 [&] { result.ok = walker.solve(0, state); });
  }
  if (result.ok) result.witness = walker.chosen();
  result.explanation = walker.explanation();
  result.states_explored = ctx.states.load();
  result.memo_hits = ctx.memo_hits.load() + walker.memo_hits();
  result.segments = segments.size();
  result.parallel_tasks = ctx.parallel_tasks;
  result.max_resident_states = ctx.resident.load();
  result.per_segment_states.reserve(segments.size());
  for (const auto& counter : ctx.seg_states) {
    result.per_segment_states.push_back(counter->load());
  }
  return result;
}

}  // namespace

CheckResult check_linearizable(const ObjectModel& model, const History& history,
                               const CheckOptions& options) {
  static const std::vector<PendingInvocation> kNoPending;
  return run_segmented(model, history, kNoPending, options);
}

CheckResult check_linearizable_with_pending(
    const ObjectModel& model, const History& history,
    const std::vector<PendingInvocation>& pending,
    const CheckOptions& options) {
  return run_segmented(model, history, pending, options);
}

}  // namespace linbound
