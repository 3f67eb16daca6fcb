// In-memory span recorder for the traced run.
//
// A span is a named wall-clock interval with the span that was open when it
// started as its parent.  Spans are kept in memory while the benchmark runs
// and written out once at exit.  A span's self time is its duration minus the
// part of that interval its child spans cover, so nested spans never count
// the same wall time twice.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< steady-clock seconds
  double end = 0;
  int parent = -1;   ///< index into Spans::all(); -1 for a root span

  double duration() const { return end - start; }
};

class Spans {
 public:
  /// Opens a span under the innermost open one; close() ends it.
  class Scope {
   public:
    Scope(Spans& spans, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span (idempotent) and returns its self time.
    double close();

   private:
    Spans& spans_;
    int index_;
    bool open_ = true;
  };

  /// Adds an already-timed span; used by the self-test and by callers that
  /// time an interval themselves.  Returns its index.
  int add(std::string name, double start, double end, int parent);

  const std::vector<Span>& all() const { return spans_; }

  /// Duration of span `index` minus the union of its direct children's
  /// intervals, each clipped to the parent's interval.
  double self_time(int index) const;

  /// Writes every span (name, start, end, parent, self) as a JSON array,
  /// with start/end relative to the first span.  Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Checks the self-time arithmetic on hand-built span trees; returns the
/// number of failed cases and prints each failure.
int spans_selftest();

}  // namespace perfbench
