// Streaming online linearizability checker (see streaming_checker.h for the
// architecture and DESIGN.md for the soundness argument).
//
// Layout: Core is the single-threaded engine -- cut detection, eager segment
// retirement via forward state-set threading, and the final-window search
// that mirrors the offline Walker exactly.  EventRing + StreamingChecker::Impl
// wrap it in the inline-vs-pipelined feeding modes; streaming_check_trace is
// the replay driver used by tests and benches.
//
// Steady state: a confirmed segment is retired from scratch that lives in
// Core and is cleared, never freed, per segment (per-process index, frontier,
// flat visited memo, final-state dedup), the window buffers rotate instead of
// regrowing, and the in-flight index is one slot per process.  What still
// allocates per segment is the output (one witness-chain node) and the
// copy-on-write clones of object states the enumeration mutates.
#include "checker/streaming_checker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/small_vec.h"
#include "spec/snapshot.h"

namespace linbound {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void fnv_u64(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= x & 0xff;
    h *= kFnvPrime;
    x >>= 8;
  }
}

/// One operation as the stream sees it.  `response == kNoTime` while the
/// operation is in flight; an operation that never responds (crash mid-op,
/// give-up) simply stays that way and finalize() treats it as pending --
/// the same classification history_with_pending makes offline.
struct StreamOp {
  std::int64_t token = 0;
  ProcessId proc = kNoProcess;
  bool accessor = false;  ///< model classifies `op` as a pure accessor
  Operation op;
  Value ret;
  Tick invoke = kNoTime;
  Tick response = kNoTime;

  bool completed() const { return response != kNoTime; }
};

/// Per-process index over one segment's operations, flattened: process p's
/// operations are ops[start[p] .. start[p+1]).  Operations arrive in
/// invocation-time order and a process's operations never overlap, so the
/// arrival-order sublist of each process IS its by_process (invoke-sorted)
/// order -- no sort needed.  Rebuilding reuses the vectors' capacity.
class ProcIndex {
 public:
  void build(const std::vector<StreamOp>& seg) {
    ProcessId max_pid = -1;
    for (const StreamOp& rec : seg) max_pid = std::max(max_pid, rec.proc);
    start_.assign(static_cast<std::size_t>(max_pid + 2), 0);
    for (const StreamOp& rec : seg) {
      ++start_[static_cast<std::size_t>(rec.proc) + 1];
    }
    for (std::size_t p = 1; p < start_.size(); ++p) start_[p] += start_[p - 1];
    fill_.assign(start_.begin(), start_.end() - 1);
    ops_.resize(seg.size());
    for (std::size_t i = 0; i < seg.size(); ++i) {
      ops_[fill_[static_cast<std::size_t>(seg[i].proc)]++] = i;
    }
  }

  std::size_t procs() const { return start_.size() - 1; }
  /// Index (into the segment) of process p's k-th operation, or kNone.
  std::size_t at(std::size_t p, std::size_t k) const {
    const std::size_t i = start_[p] + k;
    return i < start_[p + 1] ? ops_[i] : kNone;
  }

 private:
  std::vector<std::size_t> start_{0};
  std::vector<std::size_t> fill_;
  std::vector<std::size_t> ops_;
};

/// Open-addressing multimap from 64-bit hashes to dense entry indices; the
/// owner keeps the entries and answers equality.  clear() is O(1) -- it
/// bumps a generation stamp -- so a table sized by one large segment costs
/// nothing to reset for the many small ones after it.
class HashIndex {
 public:
  void clear() {
    count_ = 0;
    if (++gen_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  /// True iff some entry stored under `h` satisfies `match(index)`.
  template <typename Match>
  bool contains(std::uint64_t h, Match&& match) const {
    if (slots_.empty()) return false;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return false;
      if (s.hash == h && match(s.index)) return true;
    }
  }

  void insert(std::uint64_t h, std::size_t index) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    place(h, index);
    ++count_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t index = 0;
    std::uint32_t gen = 0;  ///< live iff equal to the table's gen_
  };

  void place(std::uint64_t h, std::size_t index) {
    std::size_t i = h & mask_;
    while (slots_[i].gen == gen_) i = (i + 1) & mask_;
    slots_[i] = Slot{h, index, gen_};
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen == gen_) place(s.hash, s.index);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  std::uint32_t gen_ = 1;
};

/// Witness bookkeeping for the forward state set: each retained final state
/// points back at the segment-local linearization (operation tokens) chosen
/// on the path that first reached it, chained across segments.  Chains are
/// shared (shared_ptr) between entries with a common prefix and are excluded
/// from the resident-state metric: they are the output being accumulated,
/// not search state.  Segments are a handful of operations, so the path
/// usually lives inline in the node.
struct ChainNode {
  std::shared_ptr<const ChainNode> prev;
  SmallVec<std::int64_t, 4> path;
};

/// Chains grow one node per retired segment -- hundreds of thousands of
/// links on a million-op run -- so letting shared_ptr unwind one recursively
/// (each node's destructor destroying its prev) overflows the stack.
/// Dismantle iteratively instead: pop exclusively owned heads one at a
/// time, stopping at the first node another chain still shares (whoever
/// drops that chain continues the teardown the same way).
void release_chain(std::shared_ptr<const ChainNode>&& head) {
  while (head && head.use_count() == 1) {
    std::shared_ptr<const ChainNode> prev =
        std::move(const_cast<ChainNode*>(head.get())->prev);
    head = std::move(prev);
  }
  head.reset();
}

/// One entry of the forward state set: a distinct object state reachable by
/// linearizing every retired segment, in first-reached order.
struct StateEntry {
  Snapshot state;
  std::shared_ptr<const ChainNode> chain;
};

/// The single-threaded checking engine.  Feed invoke()/response() in
/// simulated-time order; finalize_run() exactly once at the end.
class Core {
 public:
  Core(const ObjectModel& model, const CheckLimits& limits)
      : model_(model), limits_(limits) {
    alist_.push_back(StateEntry{Snapshot::initial(model_), nullptr});
  }

  ~Core() { release_state_set(); }

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Drop every state-set entry, dismantling each witness chain
  /// iteratively (never through the recursive shared_ptr cascade).
  void release_state_set() {
    for (StateEntry& s : alist_) release_chain(std::move(s.chain));
    alist_.clear();
  }

  void invoke(std::int64_t token, ProcessId proc, const Operation& op,
              Tick t) {
    if (proc < 0) {
      throw std::logic_error("StreamingChecker: invocation without a process");
    }
    maybe_cut(t);
    const auto p = static_cast<std::size_t>(proc);
    if (p >= in_flight_by_proc_.size()) in_flight_by_proc_.resize(p + 1);
    InFlight& slot = in_flight_by_proc_[p];
    if (slot.ix != kNone) displaced_.push_back(slot);
    slot = InFlight{token, window_.size()};
    StreamOp& rec = window_.emplace_back();
    rec.token = token;
    rec.proc = proc;
    rec.accessor = model_.classify(op) == OpClass::kPureAccessor;
    rec.op = op;
    rec.invoke = t;
    ++in_flight_;
    ++ops_seen_;
    if (window_.size() > max_window_ops_) max_window_ops_ = window_.size();
    bump_resident(0);
  }

  void response(std::int64_t token, ProcessId proc, const Value& ret,
                Tick t) {
    const std::size_t ix = take_in_flight(token, proc);
    if (ix == kNone) {
      throw std::logic_error(
          "StreamingChecker: response without a matching in-flight "
          "invocation (token " +
          std::to_string(token) + ")");
    }
    StreamOp& rec = window_[ix];
    rec.ret = ret;
    rec.response = t;
    --in_flight_;
    ++completed_seen_;
    if (t > max_response_) max_response_ = t;  // kNoTime is INT64_MIN
  }

  CheckResult finalize_run();

  std::size_t ops_seen() const { return ops_seen_; }
  std::size_t segments_retired() const { return segments_retired_; }
  std::size_t max_window_ops() const { return max_window_ops_; }
  std::size_t max_resident_states() const { return peak_resident_; }

 private:
  // --- in-flight index ------------------------------------------------------
  //
  // A process's operations never overlap, so one slot per process holds
  // what is in flight.  Two cases still find the slot taken when the
  // process invokes again, and move its occupant to `displaced_`: an
  // operation cut off by a crash the process recovered from (it never
  // responds), and a replay in which a response and the next invocation of
  // the same process share a tick and the invocation sorts first.

  /// An invoked-but-unanswered operation: its token and window position.
  struct InFlight {
    std::int64_t token = 0;
    std::size_t ix = kNone;
  };

  /// Remove in-flight `token` of process `proc`; its window position, or
  /// kNone when it is not in flight.
  std::size_t take_in_flight(std::int64_t token, ProcessId proc) {
    const auto p = static_cast<std::size_t>(proc);
    if (proc >= 0 && p < in_flight_by_proc_.size()) {
      InFlight& slot = in_flight_by_proc_[p];
      if (slot.ix != kNone && slot.token == token) {
        return std::exchange(slot.ix, kNone);
      }
    }
    for (auto it = displaced_.begin(); it != displaced_.end(); ++it) {
      if (it->token == token) {
        const std::size_t ix = it->ix;
        displaced_.erase(it);
        return ix;
      }
    }
    return kNone;
  }

  // --- online cut detection -------------------------------------------------

  /// Called on every invocation, before it joins the window.  Nothing in
  /// flight + every response so far strictly before `t` is exactly
  /// segment_history's cut condition restricted to what is knowable online;
  /// the pending-invocation clause is resolved by deferring confirmation
  /// (retire the previous tentative segment only once a *later* tentative
  /// cut exists -- its trigger had nothing in flight, so no pending
  /// invocation can predate it).  The three segment buffers rotate: the
  /// window closes into `tentative_`, the previous tentative segment is
  /// retired from `retiring_`, and the emptied buffer becomes the window.
  void maybe_cut(Tick t) {
    if (in_flight_ != 0 || window_.empty()) return;
    if (max_response_ >= t) return;
    closed_ops_ += window_.size();
    const bool confirm = has_tentative_;
    std::swap(retiring_, tentative_);
    std::swap(tentative_, window_);
    has_tentative_ = true;
    max_response_ = kNoTime;
    if (confirm) {
      closed_ops_ -= retiring_.size();
      ++confirmed_cuts_;
      if (!failed_) advance(retiring_);
      retiring_.clear();
    }
  }

  // --- forward state-set threading over a confirmed segment -----------------
  //
  // Scratch for enumerating one confirmed segment from every state-set
  // entry lives in the members below and is cleared per segment.  The
  // visited memo is the cross-entry memo: a (frontier, state) node is
  // expanded at most once per segment no matter how many entries re-reach
  // it (the role the offline dead memo plays), marked pre-order -- safe
  // because the frontier strictly advances along any path (no cycles) and
  // a marked node's subtree has always been fully enumerated.

  std::size_t seg_front(std::size_t p) const {
    return seg_ix_.at(p, frontier_[p]);
  }

  /// Same-segment real-time eligibility, the offline Walker's rule: no
  /// other remaining frontier operation may have responded strictly before
  /// `inv`.  Confirmed segments hold no pending operations (every pending
  /// invocation lives in the final window -- nothing was in flight at any
  /// trigger), so the frontier scan is the whole test.
  bool seg_eligible_at(Tick inv, std::size_t self) const {
    for (std::size_t p = 0; p < seg_ix_.procs(); ++p) {
      const std::size_t f = seg_front(p);
      if (f == kNone || f == self) continue;
      if ((*seg_)[f].response < inv) return false;
    }
    return true;
  }

  std::uint64_t seg_hash(const Snapshot& state) const {
    std::uint64_t h = kFnvOffset;
    for (std::size_t f : frontier_) fnv_u64(h, f);
    fnv_u64(h, state.fingerprint());
    return h;
  }

  /// Replace the state set with every distinct final state of `seg`,
  /// enumerating from each current entry in first-reached order.  An empty
  /// successor set is the (final) verdict: no linearization of the prefix
  /// extends through this segment.
  void advance(const std::vector<StreamOp>& seg) {
    seg_ = &seg;
    seg_ix_.build(seg);
    visited_.clear();
    visited_frontiers_.clear();
    visited_states_.clear();
    finals_.clear();
    next_.clear();
    for (const StateEntry& entry : alist_) {
      frontier_.assign(seg_ix_.procs(), 0);
      path_.clear();
      base_ = &entry.chain;
      Snapshot state = entry.state;
      enum_dfs(state);
    }
    ++segments_retired_;
    visited_states_.clear();
    if (next_.empty()) {
      failed_ = true;
      release_state_set();
      return;
    }
    std::swap(alist_, next_);
    // Entries that produced no surviving final own their chain suffix
    // exclusively now; dismantle those iteratively (shared prefixes stop
    // the walk immediately).
    for (StateEntry& s : next_) release_chain(std::move(s.chain));
    bump_resident(0);
  }

  bool visited(std::uint64_t h, const Snapshot& state) const {
    const std::size_t np = frontier_.size();
    return visited_.contains(h, [&](std::size_t i) {
      return std::equal(frontier_.begin(), frontier_.end(),
                        visited_frontiers_.begin() +
                            static_cast<std::ptrdiff_t>(i * np)) &&
             visited_states_[i].equals(state);
    });
  }

  void enum_dfs(Snapshot& state) {
    if (path_.size() == seg_->size()) {  // every operation linearized
      emit_final(state);
      return;
    }
    const std::uint64_t h = seg_hash(state);
    if (visited(h, state)) {
      ++memo_hits_;
      return;
    }
    visited_.insert(h, visited_states_.size());
    visited_frontiers_.insert(visited_frontiers_.end(), frontier_.begin(),
                              frontier_.end());
    visited_states_.push_back(state);
    bump_resident(seg_->size() + visited_states_.size() + next_.size());
    count_state();

    // Candidate order mirrors the offline Walker: process fronts in pid
    // order (there are no pending operations in a confirmed segment).
    bool any_candidate = false;
    for (std::size_t p = 0; p < seg_ix_.procs(); ++p) {
      const std::size_t f = seg_front(p);
      if (f == kNone) continue;
      const StreamOp& op = (*seg_)[f];
      if (!seg_eligible_at(op.invoke, f)) continue;
      any_candidate = true;
      Snapshot next = state;
      const Value determined =
          op.accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        note_mismatch(op, state, determined);
        continue;
      }
      ++frontier_[p];
      path_.push_back(op.token);
      enum_dfs(next);
      path_.pop_back();
      --frontier_[p];
    }
    if (!any_candidate) record_explanation(kNoCandidateText);
  }

  void emit_final(const Snapshot& state) {
    const std::uint64_t fp = state.fingerprint();
    if (finals_.contains(fp, [&](std::size_t j) {
          return next_[j].state.equals(state);
        })) {
      return;  // duplicate final state
    }
    finals_.insert(fp, next_.size());
    auto node = std::make_shared<ChainNode>();
    node->prev = *base_;
    node->path.reserve(path_.size());
    for (std::int64_t token : path_) node->path.push_back(token);
    next_.push_back(StateEntry{state, std::move(node)});
    bump_resident(seg_->size() + visited_states_.size() + next_.size());
  }

  // --- the final-window search (exact offline Walker mirror) ----------------

  struct DeadEntry {
    std::vector<std::size_t> frontier;
    std::vector<bool> pending_taken;
    Snapshot state;
  };

  /// Scratch for searching the final window: completed operations plus the
  /// pending invocations, with the offline Walker's dead memo (post-order,
  /// shared across state-set entries -- exactly the memo the offline search
  /// keeps for its last segment across backtracks into earlier segments).
  struct FinalCtx {
    const std::vector<StreamOp>& comp;
    const std::vector<StreamOp>& pend;
    ProcIndex ix;
    std::vector<std::size_t> frontier;
    std::vector<bool> pending_taken;
    std::vector<std::int64_t> path;
    HashIndex dead;
    std::vector<DeadEntry> dead_entries;

    FinalCtx(const std::vector<StreamOp>& c, const std::vector<StreamOp>& q)
        : comp(c), pend(q) {
      ix.build(c);
    }

    std::size_t front(std::size_t p) const { return ix.at(p, frontier[p]); }

    /// Every completed operation linearized (pendings may stay untaken).
    bool complete() const { return path.size() == comp.size(); }

    bool eligible_at(Tick inv, std::size_t self) const {
      // The final window is the last segment: no later segment exists, so
      // the offline pending rule's later-segment suffix minimum is vacuous
      // and eligibility reduces to the same-segment frontier scan for
      // completed and pending candidates alike.
      for (std::size_t p = 0; p < ix.procs(); ++p) {
        const std::size_t fr = front(p);
        if (fr == kNone || fr == self) continue;
        if (comp[fr].response < inv) return false;
      }
      return true;
    }

    std::uint64_t hash(const Snapshot& state) const {
      std::uint64_t h = kFnvOffset;
      for (std::size_t fr : frontier) fnv_u64(h, fr);
      std::uint64_t bits = 0;
      for (std::size_t q = 0; q < pending_taken.size(); ++q) {
        bits = (bits << 1) | (pending_taken[q] ? 1u : 0u);
        if ((q & 63u) == 63u) {
          fnv_u64(h, bits);
          bits = 0;
        }
      }
      if (!pending_taken.empty()) fnv_u64(h, bits);
      fnv_u64(h, state.fingerprint());
      return h;
    }

    bool known_dead(std::uint64_t h, const Snapshot& state) const {
      return dead.contains(h, [&](std::size_t i) {
        const DeadEntry& e = dead_entries[i];
        return e.frontier == frontier && e.pending_taken == pending_taken &&
               e.state.equals(state);
      });
    }
  };

  bool fin_dfs(FinalCtx& f, Snapshot& state) {
    if (f.complete()) return true;
    const std::uint64_t h = f.hash(state);
    if (f.known_dead(h, state)) {
      ++memo_hits_;
      return false;
    }
    count_state();

    for (std::size_t q = 0; q < f.pend.size(); ++q) {
      if (f.pending_taken[q]) continue;
      if (!f.eligible_at(f.pend[q].invoke, kNone)) continue;
      Snapshot next = state;
      next.apply(f.pend[q].op);
      f.pending_taken[q] = true;
      if (fin_dfs(f, next)) return true;
      f.pending_taken[q] = false;
    }

    bool any_candidate = false;
    for (std::size_t p = 0; p < f.ix.procs(); ++p) {
      const std::size_t fr = f.front(p);
      if (fr == kNone) continue;
      const StreamOp& op = f.comp[fr];
      if (!f.eligible_at(op.invoke, fr)) continue;
      any_candidate = true;
      Snapshot next = state;
      const Value determined =
          op.accessor ? next.apply_accessor(op.op) : next.apply(op.op);
      if (!(determined == op.ret)) {
        note_mismatch(op, state, determined);
        continue;
      }
      ++f.frontier[p];
      f.path.push_back(op.token);
      if (fin_dfs(f, next)) return true;
      f.path.pop_back();
      --f.frontier[p];
    }

    if (!any_candidate) record_explanation(kNoCandidateText);
    f.dead.insert(h, f.dead_entries.size());
    f.dead_entries.push_back(DeadEntry{f.frontier, f.pending_taken, state});
    bump_resident(f.dead_entries.size());
    return false;
  }

  // --- shared plumbing ------------------------------------------------------

  void count_state() {
    if (++states_ > limits_.max_states) {
      detail::throw_state_budget_exceeded(limits_.max_states, states_,
                                          segments_retired_,
                                          confirmed_cuts_ + 1, ops_seen_);
    }
  }

  void record_explanation(std::string text) {
    if (explanation_.empty() && !text.empty()) explanation_ = std::move(text);
  }

  /// Only the first explanation is ever kept, so the text of a mismatching
  /// branch is built only while none is recorded yet.
  void note_mismatch(const StreamOp& op, const Snapshot& before,
                     const Value& determined) {
    if (!explanation_.empty()) return;
    std::ostringstream os;
    os << "p" << op.proc << " " << model_.describe(op.op) << " returned "
       << op.ret.to_string() << " but state " << before.to_string()
       << " determines " << determined.to_string();
    explanation_ = os.str();
  }

  static constexpr const char* kNoCandidateText =
      "no operation is eligible to linearize next (real-time order cycle)";

  /// Track the peak resident footprint: everything O(open window) the
  /// checker holds -- window + unconfirmed segment ops, state-set entries,
  /// and the current segment's enumeration scratch (`extra`).  Witness
  /// chains are excluded (see CheckResult::max_resident_states).
  void bump_resident(std::size_t extra) {
    const std::size_t cur =
        window_.size() + closed_ops_ + alist_.size() + extra;
    if (cur > peak_resident_) peak_resident_ = cur;
  }

  const ObjectModel& model_;
  const CheckLimits limits_;

  // Open window + in-flight tracking.
  std::vector<StreamOp> window_;
  std::vector<InFlight> in_flight_by_proc_;
  std::vector<InFlight> displaced_;
  std::size_t in_flight_ = 0;
  Tick max_response_ = kNoTime;  // over responses since the last cut

  // The tentative segment awaiting confirmation, and the buffer a confirmed
  // segment is retired from (empty between events).
  std::vector<StreamOp> tentative_;
  std::vector<StreamOp> retiring_;
  bool has_tentative_ = false;
  std::size_t closed_ops_ = 0;

  // Forward state set across everything retired so far.
  std::vector<StateEntry> alist_;

  // Segment enumeration scratch (see advance()).
  const std::vector<StreamOp>* seg_ = nullptr;
  ProcIndex seg_ix_;
  std::vector<std::size_t> frontier_;
  std::vector<std::int64_t> path_;
  HashIndex visited_;
  std::vector<std::size_t> visited_frontiers_;  // frontier_.size() per entry
  std::vector<Snapshot> visited_states_;
  std::vector<StateEntry> next_;  // the successor state set being built
  HashIndex finals_;              // fingerprint -> index into next_
  const std::shared_ptr<const ChainNode>* base_ = nullptr;

  bool failed_ = false;
  std::string explanation_;
  std::size_t states_ = 0;
  std::size_t memo_hits_ = 0;
  std::size_t confirmed_cuts_ = 0;
  std::size_t segments_retired_ = 0;
  std::size_t ops_seen_ = 0;
  std::size_t completed_seen_ = 0;
  std::size_t max_window_ops_ = 0;
  std::size_t peak_resident_ = 0;
};

CheckResult Core::finalize_run() {
  CheckResult result;
  if (ops_seen_ == 0) {
    // Nothing was ever dispatched: the empty witness linearizes the empty
    // history (the offline checkers' trivial fast path).
    result.ok = true;
    result.early_exit = true;
    return result;
  }

  // Validate the last tentative cut: offline, a cut additionally requires
  // every pending invocation to come at or after the first completed
  // post-cut invocation.  All pending operations sit in the open window
  // (nothing was in flight at any trigger), so both sides of that test are
  // window-local.  Invalid (or trailing, with no completed operation after
  // it) means the offline segmentation never cut here: merge the segment
  // back into the window.  The merge preserves global and per-process
  // invocation order because every closed operation was invoked strictly
  // before the trigger and every window operation at or after it.
  if (has_tentative_) {
    Tick first_completed = kNoTime;
    Tick first_pending = kNoTime;
    for (const StreamOp& rec : window_) {
      Tick& slot = rec.completed() ? first_completed : first_pending;
      if (slot == kNoTime || rec.invoke < slot) slot = rec.invoke;
    }
    const bool valid =
        first_completed != kNoTime &&
        (first_pending == kNoTime || first_pending >= first_completed);
    has_tentative_ = false;
    closed_ops_ -= tentative_.size();
    if (valid) {
      ++confirmed_cuts_;
      if (!failed_) advance(tentative_);
    } else {
      tentative_.insert(tentative_.end(),
                        std::make_move_iterator(window_.begin()),
                        std::make_move_iterator(window_.end()));
      std::swap(window_, tentative_);
    }
  }

  result.segments = confirmed_cuts_ + 1;
  if (failed_) {
    result.explanation = explanation_;
    result.states_explored = states_;
    result.memo_hits = memo_hits_;
    result.max_resident_states = peak_resident_;
    return result;
  }

  // Search the final window from each surviving state-set entry in order;
  // the first success selects the same upstream final state -- and thus the
  // same witness -- as the offline search's backtracking would.
  std::vector<StreamOp> comp;
  std::vector<StreamOp> pend;
  for (StreamOp& rec : window_) {
    (rec.completed() ? comp : pend).push_back(std::move(rec));
  }
  // Offline pending order is trace order == token order (tokens index the
  // trace); window arrival order is invoke order, so re-sort.
  std::sort(pend.begin(), pend.end(),
            [](const StreamOp& a, const StreamOp& b) {
              return a.token < b.token;
            });

  FinalCtx fc(comp, pend);
  const StateEntry* winner = nullptr;
  for (const StateEntry& entry : alist_) {
    fc.frontier.assign(fc.ix.procs(), 0);
    fc.pending_taken.assign(pend.size(), false);
    fc.path.clear();
    Snapshot state = entry.state;
    if (fin_dfs(fc, state)) {
      winner = &entry;
      break;
    }
  }

  if (winner != nullptr) {
    result.ok = true;
    // Stitch the witness: retired-segment paths in order, then the final
    // window's.  Tokens map to history_with_pending indices by rank among
    // the completed tokens (the witness is a permutation of exactly those).
    std::vector<const ChainNode*> chain;
    for (const ChainNode* n = winner->chain.get(); n != nullptr;
         n = n->prev.get()) {
      chain.push_back(n);
    }
    std::vector<std::int64_t> tokens;
    tokens.reserve(completed_seen_);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      tokens.insert(tokens.end(), (*it)->path.begin(), (*it)->path.end());
    }
    tokens.insert(tokens.end(), fc.path.begin(), fc.path.end());
    // Branch-local mismatches recorded on the way to a successful search
    // are not failures; report an explanation only without a witness.
    explanation_.clear();
    std::vector<std::int64_t> sorted = tokens;
    std::sort(sorted.begin(), sorted.end());
    result.witness.reserve(tokens.size());
    for (std::int64_t t : tokens) {
      result.witness.push_back(static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), t) -
          sorted.begin()));
    }
  }
  result.explanation = explanation_;
  result.states_explored = states_;
  result.memo_hits = memo_hits_;
  result.max_resident_states = peak_resident_;
  return result;
}

/// One tap event.  Invocations carry the operation; responses the return.
/// A ring slot is reused in place, so the field an event kind does not use
/// keeps whatever the slot held before.
struct Event {
  bool is_invoke = false;
  std::int64_t token = 0;
  ProcessId proc = kNoProcess;
  Operation op;
  Value ret;
  Tick time = kNoTime;
};

/// Busy-wait hint for the ring's bounded spins.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Bounded single-producer single-consumer ring for the pipelined mode,
/// handed over in batches.  The producer writes events straight into ring
/// slots and publishes them kStreamingHandoffBatch at a time (fewer when the
/// ring is smaller) with one store; the consumer applies what is published
/// and hands the slots back the same way.  A side with nothing to do spins
/// for a bounded time and then parks on a condition variable; the other side
/// takes the lock and signals only when it sees that side parked, so the
/// steady state makes no system calls.  Parking is a Dekker handshake:
/// each side stores its parked flag before re-checking the other's index,
/// and the other side stores its index before reading the flag (all
/// sequentially consistent), so at least one of them sees the other.
///
/// A full ring blocks the producer's *wall clock* only; the simulator's
/// event schedule never observes it.  kill() (consumer died) turns staging
/// into a drop so a failed checker cannot wedge the run.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity)
      : slots_(std::max<std::size_t>(capacity, 1)),
        batch_(std::min(kStreamingHandoffBatch, slots_.size())) {}

  // --- producer side ---

  /// The slot the next event is written into; commit() hands it over.
  /// Waits (wall clock only) while the ring is full.
  Event& stage() {
    if (!dropping_ && staged_ - head_seen_ == slots_.size()) make_room();
    return dropping_ ? sink_ : slots_[stage_at_];
  }

  void commit() {
    if (dropping_) return;
    ++staged_;
    if (++stage_at_ == slots_.size()) stage_at_ = 0;
    if (staged_ - published_ >= batch_) publish();
  }

  /// Publish the partial batch and mark the end of the stream.
  void close() {
    if (!dropping_) publish();
    std::lock_guard<std::mutex> lk(m_);
    closed_.store(true);
    data_cv_.notify_one();
  }

  // --- consumer side ---

  /// Apply every event in order until the producer closes the ring.
  /// Exceptions from `apply` propagate (the caller kills the ring).
  template <typename Apply>
  void drain(Apply&& apply) {
    std::uint64_t head = 0;
    std::size_t at = 0;
    for (;;) {
      std::uint64_t tail = tail_.load(std::memory_order_acquire);
      if (tail == head && !await_data(head, tail)) return;
      const std::uint64_t end = std::min(tail, head + batch_);
      for (; head < end; ++head) {
        apply(slots_[at]);
        if (++at == slots_.size()) at = 0;
      }
      head_.store(head);
      if (producer_parked_.load()) {
        std::lock_guard<std::mutex> lk(m_);
        room_cv_.notify_one();
      }
    }
  }

  void kill() {
    dead_.store(true);
    std::lock_guard<std::mutex> lk(m_);
    room_cv_.notify_one();
  }

 private:
  /// How long a waiting side spins before it parks.  Longer than the
  /// producer takes to fill a batch (~0.3 ms on the 1M-op run), so a
  /// consumer that keeps up never parks mid-stream and the producer never
  /// pays for a wake-up; short enough that an idle side soon gives its
  /// core back.
  static constexpr std::chrono::microseconds kSpinBudget{1000};

  /// Spin until `ready()` holds (true) or the budget runs out (false).
  template <typename Ready>
  static bool spin_until(Ready&& ready) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned i = 1;; ++i) {
      if (ready()) return true;
      cpu_relax();
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
    }
  }

  void publish() {
    if (staged_ == published_) return;
    published_ = staged_;
    tail_.store(published_);
    if (consumer_parked_.load()) {
      std::lock_guard<std::mutex> lk(m_);
      data_cv_.notify_one();
    }
  }

  /// The ring is full as far as the producer knows: publish what is staged
  /// (the consumer can only free slots it can see), then wait for room.
  void make_room() {
    publish();
    const auto has_room = [&] {
      head_seen_ = head_.load();
      return staged_ - head_seen_ < slots_.size() || dead_.load();
    };
    if (!spin_until(has_room)) {
      std::unique_lock<std::mutex> lk(m_);
      producer_parked_.store(true);
      room_cv_.wait(lk, has_room);
      producer_parked_.store(false);
    }
    if (dead_.load()) dropping_ = true;
  }

  /// Wait until events past `head` are published (true, `tail` updated) or
  /// the stream is closed and fully drained (false).
  bool await_data(std::uint64_t head, std::uint64_t& tail) {
    const auto ready = [&] {
      // closed_ is stored after the final publish, so reading it first
      // makes the tail read below final once it is set.
      const bool closed = closed_.load();
      tail = tail_.load();
      return tail != head || closed;
    };
    if (!spin_until(ready)) {
      std::unique_lock<std::mutex> lk(m_);
      consumer_parked_.store(true);
      data_cv_.wait(lk, ready);
      consumer_parked_.store(false);
    }
    return tail != head;
  }

  std::vector<Event> slots_;
  const std::size_t batch_;

  // Shared indices (events ever published / ever consumed) and flags.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<bool> consumer_parked_{false};
  std::atomic<bool> producer_parked_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> dead_{false};
  std::mutex m_;
  std::condition_variable data_cv_;  // consumer parks here
  std::condition_variable room_cv_;  // producer parks here

  // Producer-local.
  alignas(64) std::uint64_t staged_ = 0;  // events written
  std::uint64_t published_ = 0;           // events made visible
  std::uint64_t head_seen_ = 0;           // last head_ read
  std::size_t stage_at_ = 0;              // slot index of staged_
  bool dropping_ = false;                 // consumer died: discard
  Event sink_;                            // where dropped events go
};

}  // namespace

struct StreamingChecker::Impl {
  Core core;
  std::optional<EventRing> ring;  // engaged only when pipelined (jobs > 1)
  std::thread worker;
  std::exception_ptr error;  // worker -> finalize; join() orders the read
  bool finalized = false;

  Impl(const ObjectModel& model, const StreamingCheckOptions& options)
      : core(model, options.limits) {
    if (options.jobs > 1) {
      ring.emplace(options.ring_capacity);
      worker = std::thread([this] { drain(); });
    }
  }

  ~Impl() {
    if (worker.joinable()) {
      ring->close();
      worker.join();
    }
  }

  void drain() {
    try {
      ring->drain([this](const Event& ev) {
        if (ev.is_invoke) {
          core.invoke(ev.token, ev.proc, ev.op, ev.time);
        } else {
          core.response(ev.token, ev.proc, ev.ret, ev.time);
        }
      });
    } catch (...) {
      error = std::current_exception();
      ring->kill();
    }
  }

  void invoke(const OperationRecord& rec) {
    if (!ring) {
      core.invoke(rec.token, rec.proc, rec.op, rec.invoke_time);
      return;
    }
    Event& ev = ring->stage();
    ev.is_invoke = true;
    ev.token = rec.token;
    ev.proc = rec.proc;
    ev.op = rec.op;
    ev.time = rec.invoke_time;
    ring->commit();
  }

  void response(const OperationRecord& rec) {
    if (!ring) {
      core.response(rec.token, rec.proc, rec.ret, rec.response_time);
      return;
    }
    Event& ev = ring->stage();
    ev.is_invoke = false;
    ev.token = rec.token;
    ev.proc = rec.proc;
    ev.ret = rec.ret;
    ev.time = rec.response_time;
    ring->commit();
  }

  CheckResult finalize() {
    if (finalized) {
      throw std::logic_error("StreamingChecker::finalize called twice");
    }
    finalized = true;
    if (ring) {
      ring->close();
      worker.join();
      if (error) std::rethrow_exception(error);
    }
    return core.finalize_run();
  }
};

StreamingChecker::StreamingChecker(const ObjectModel& model,
                                   StreamingCheckOptions options)
    : impl_(std::make_unique<Impl>(model, options)) {}

StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::attach(Simulator& sim) {
  Impl* impl = impl_.get();
  auto prev_invoke = sim.invoke_hook();
  auto prev_response = sim.response_hook();
  sim.set_invoke_hook(
      [impl, prev_invoke](const OperationRecord& rec) {
        if (prev_invoke) prev_invoke(rec);
        impl->invoke(rec);
      });
  sim.set_response_hook(
      [impl, prev_response](const OperationRecord& rec) {
        if (prev_response) prev_response(rec);
        impl->response(rec);
      });
}

void StreamingChecker::on_invoke(const OperationRecord& rec) {
  impl_->invoke(rec);
}

void StreamingChecker::on_response(const OperationRecord& rec) {
  impl_->response(rec);
}

CheckResult StreamingChecker::finalize() { return impl_->finalize(); }

std::size_t StreamingChecker::ops_seen() const { return impl_->core.ops_seen(); }
std::size_t StreamingChecker::segments_retired() const {
  return impl_->core.segments_retired();
}
std::size_t StreamingChecker::max_window_ops() const {
  return impl_->core.max_window_ops();
}
std::size_t StreamingChecker::max_resident_states() const {
  return impl_->core.max_resident_states();
}

CheckResult streaming_check_trace(const ObjectModel& model, const Trace& trace,
                                  const StreamingCheckOptions& options) {
  StreamingChecker checker(model, options);
  // Feed in (time, token, invoke-before-response) order.  Cut decisions are
  // insensitive to same-tick orderings, so any time-sorted replay matches
  // the live tap; invoke-before-response keeps a zero-latency operation's
  // own events well-formed, and the token tiebreak makes the replay a total
  // (deterministic) order.
  struct Ev {
    Tick time;
    std::int64_t token;
    int kind;  // 0 invoke, 1 response
    const OperationRecord* rec;
  };
  std::vector<Ev> events;
  events.reserve(trace.ops.size() * 2);
  for (const OperationRecord& rec : trace.ops) {
    if (rec.invoke_time == kNoTime) continue;  // never dispatched
    events.push_back(Ev{rec.invoke_time, rec.token, 0, &rec});
    if (rec.completed()) {
      events.push_back(Ev{rec.response_time, rec.token, 1, &rec});
    }
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.token != b.token) return a.token < b.token;
    return a.kind < b.kind;
  });
  for (const Ev& ev : events) {
    if (ev.kind == 0) {
      checker.on_invoke(*ev.rec);
    } else {
      checker.on_response(*ev.rec);
    }
  }
  return checker.finalize();
}

}  // namespace linbound
