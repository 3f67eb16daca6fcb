#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common.h"

namespace perfbench {

Spans::Scope::Scope(Spans& spans, std::string name)
    : spans_(spans),
      index_(spans.add(std::move(name), now_s(), 0,
                       spans.open_.empty() ? -1 : spans.open_.back())) {
  spans_.open_.push_back(index_);
}

double Spans::Scope::close() {
  if (open_) {
    open_ = false;
    spans_.spans_[static_cast<std::size_t>(index_)].end = now_s();
    spans_.open_.pop_back();
  }
  return spans_.self_time(index_);
}

int Spans::add(std::string name, double start, double end, int parent) {
  spans_.push_back(Span{std::move(name), start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double Spans::self_time(int index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans_) {
    if (child.parent != index) continue;
    const double lo = std::max(child.start, span.start);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = span.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration() - busy;
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  out << "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"self\": %.9f}%s\n",
                  s.name.c_str(), s.start - origin, s.end - origin, s.parent,
                  self_time(static_cast<int>(i)),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return bool(out);
}

int spans_selftest() {
  int failures = 0;
  const auto expect = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-12) {
      std::printf("spans selftest FAILED: %s = %.12g, want %.12g\n", what, got,
                  want);
      ++failures;
    }
  };

  // root [0,10] with children [1,3] and [5,6]; grandchild [1.5,2] of [1,3].
  Spans tree;
  const int root = tree.add("root", 0, 10, -1);
  const int a = tree.add("a", 1, 3, root);
  const int leaf = tree.add("a.x", 1.5, 2, a);
  tree.add("b", 5, 6, root);
  expect("root self", tree.self_time(root), 7);
  expect("a self", tree.self_time(a), 1.5);
  expect("leaf self", tree.self_time(leaf), 0.5);

  // Overlapping children (parallel work) count their union once; a child
  // running past its parent is clipped to the parent's interval.
  Spans overlap;
  const int p = overlap.add("p", 0, 4, -1);
  overlap.add("c1", 0.5, 2, p);
  overlap.add("c2", 1, 3, p);
  overlap.add("c3", 3.5, 9, p);
  expect("overlap self", overlap.self_time(p), 4 - 2.5 - 0.5);

  // Scopes nest by open order and close in reverse.
  Spans live;
  {
    Spans::Scope outer(live, "outer");
    { Spans::Scope inner(live, "inner"); }
  }
  if (live.all().size() != 2 || live.all()[1].parent != 0 ||
      live.all()[0].parent != -1) {
    std::printf("spans selftest FAILED: scope nesting\n");
    ++failures;
  }
  expect("scope self", live.self_time(0),
         live.all()[0].duration() - live.all()[1].duration());
  return failures;
}

}  // namespace perfbench
