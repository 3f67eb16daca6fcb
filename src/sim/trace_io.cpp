#include "sim/trace_io.h"

#include <charconv>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace linbound {
namespace {

std::optional<Tick> parse_time_or_dash(const std::string& token) {
  if (token == "-") return kNoTime;
  try {
    std::size_t used = 0;
    const long long x = std::stoll(token, &used);
    if (used != token.size()) return std::nullopt;
    return static_cast<Tick>(x);
  } catch (...) {
    return std::nullopt;
  }
}

/// Values may contain spaces (lists, strings); arguments are written
/// separated by a field marker that cannot appear inside the grammar.
constexpr char kFieldSep = '\t';

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

/// The one `trace v1` emitter.  Each line is formatted into a stack buffer
/// (integers via std::to_chars, units and bools as their literals, strings
/// and lists via Value::to_string) and handed to
/// `sink(const char*, std::size_t)` when it ends -- or earlier, when a long
/// value would overflow the buffer -- so write_trace and hash_trace see the
/// same bytes in the same order.  Handing over a line at a time, not a full
/// buffer, lets the CPU hash one line while it formats the next.
template <typename Sink>
class TraceEmitter {
 public:
  explicit TraceEmitter(Sink& sink) : sink_(sink) {}

  void put(char c) {
    if (used_ == sizeof buf_) flush();
    buf_[used_++] = c;
  }
  void put(std::string_view s) {
    if (s.size() > sizeof buf_ - used_) {
      flush();
      if (s.size() > sizeof buf_) {
        sink_(s.data(), s.size());
        return;
      }
    }
    std::memcpy(buf_ + used_, s.data(), s.size());
    used_ += s.size();
  }
  void put_int(std::int64_t x) {
    if (sizeof buf_ - used_ < kMaxIntChars) flush();
    used_ = static_cast<std::size_t>(
        std::to_chars(buf_ + used_, buf_ + sizeof buf_, x).ptr - buf_);
  }
  /// " <x>" -- the separator every numeric field after the first carries.
  void field(std::int64_t x) {
    put(' ');
    put_int(x);
  }
  void time_field(Tick t) {
    put(' ');
    if (t == kNoTime) {
      put('-');
    } else {
      put_int(t);
    }
  }
  void value_field(const Value& v) {
    put(kFieldSep);
    if (v.is_int()) {
      put_int(v.as_int());
    } else if (v.is_unit()) {
      put("()");
    } else if (v.is_bool()) {
      put(v.as_bool() ? "true" : "false");
    } else {
      put(v.to_string());
    }
  }
  void end_line() {
    put('\n');
    flush();
  }
  void flush() {
    sink_(buf_, used_);
    used_ = 0;
  }

 private:
  static constexpr std::size_t kMaxIntChars = 20;  // "-9223372036854775808"
  Sink& sink_;
  char buf_[256];  // every line without long values fits
  std::size_t used_ = 0;
};

template <typename Sink>
void emit_trace(const Trace& trace, Sink& sink) {
  TraceEmitter<Sink> out(sink);
  out.put("trace v1\ntiming");
  out.field(trace.timing.d);
  out.field(trace.timing.u);
  out.field(trace.timing.eps);
  out.put("\noffsets");
  for (Tick c : trace.clock_offsets) out.field(c);
  out.put("\nend");
  out.field(trace.end_time);
  out.end_line();
  for (const MessageRecord& m : trace.messages) {
    out.put("msg");
    out.field(m.id);
    out.field(m.from);
    out.field(m.to);
    out.field(m.send_time);
    out.time_field(m.recv_time);
    out.end_line();
  }
  for (const OperationRecord& rec : trace.ops) {
    out.put("op");
    out.field(rec.token);
    out.field(rec.proc);
    out.field(rec.op.code);
    out.time_field(rec.invoke_time);
    out.time_field(rec.response_time);
    out.value_field(rec.ret);
    for (const Value& arg : rec.op.args) out.value_field(arg);
    out.end_line();
  }
  for (const FaultEvent& f : trace.faults) {
    out.put("fault ");
    out.put(fault_kind_name(f.kind));
    out.field(f.time);
    out.field(f.proc);
    out.field(f.peer);
    out.field(f.msg);
    out.field(f.magnitude);
    out.end_line();
  }
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  auto sink = [&os](const char* p, std::size_t n) {
    os.write(p, static_cast<std::streamsize>(n));
  };
  emit_trace(trace, sink);
}

std::string trace_to_string(const Trace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

std::uint64_t hash_trace(const Trace& trace) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a
  auto sink = [&hash](const char* p, std::size_t n) {
    std::uint64_t h = hash;  // a local: stores through `hash` may alias `p`
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(p[i])) * 1099511628211ull;
    }
    hash = h;
  };
  emit_trace(trace, sink);
  return hash;
}

std::optional<Trace> read_trace(std::istream& is, std::string* error) {
  Trace trace;
  std::string line;

  if (!std::getline(is, line) || line != "trace v1") {
    fail(error, "missing 'trace v1' header");
    return std::nullopt;
  }

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "timing") {
      if (!(ls >> trace.timing.d >> trace.timing.u >> trace.timing.eps)) {
        fail(error, "bad timing line");
        return std::nullopt;
      }
    } else if (kind == "offsets") {
      Tick c;
      while (ls >> c) trace.clock_offsets.push_back(c);
    } else if (kind == "end") {
      if (!(ls >> trace.end_time)) {
        fail(error, "bad end line");
        return std::nullopt;
      }
    } else if (kind == "msg") {
      MessageRecord m;
      std::string recv;
      if (!(ls >> m.id >> m.from >> m.to >> m.send_time >> recv)) {
        fail(error, "bad msg line: " + line);
        return std::nullopt;
      }
      auto recv_time = parse_time_or_dash(recv);
      if (!recv_time) {
        fail(error, "bad recv time: " + recv);
        return std::nullopt;
      }
      m.recv_time = *recv_time;
      trace.messages.push_back(m);
    } else if (kind == "op") {
      OperationRecord rec;
      std::string invoke, response;
      if (!(ls >> rec.token >> rec.proc >> rec.op.code >> invoke >> response)) {
        fail(error, "bad op line: " + line);
        return std::nullopt;
      }
      auto invoke_time = parse_time_or_dash(invoke);
      auto response_time = parse_time_or_dash(response);
      if (!invoke_time || !response_time) {
        fail(error, "bad op times: " + line);
        return std::nullopt;
      }
      rec.invoke_time = *invoke_time;
      rec.response_time = *response_time;
      // Remainder: tab-separated Value fields, first the return.
      std::string rest;
      std::getline(ls, rest);
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (start < rest.size()) {
        if (rest[start] == kFieldSep) {
          ++start;
          const std::size_t end = rest.find(kFieldSep, start);
          fields.push_back(rest.substr(start, end == std::string::npos
                                                  ? std::string::npos
                                                  : end - start));
          start = end == std::string::npos ? rest.size() : end;
        } else {
          ++start;
        }
      }
      if (fields.empty()) {
        fail(error, "op line missing return value: " + line);
        return std::nullopt;
      }
      auto ret = Value::parse(fields[0]);
      if (!ret) {
        fail(error, "bad return value: " + fields[0]);
        return std::nullopt;
      }
      rec.ret = std::move(*ret);
      for (std::size_t i = 1; i < fields.size(); ++i) {
        auto arg = Value::parse(fields[i]);
        if (!arg) {
          fail(error, "bad argument value: " + fields[i]);
          return std::nullopt;
        }
        rec.op.args.push_back(std::move(*arg));
      }
      trace.ops.push_back(std::move(rec));
    } else if (kind == "fault") {
      FaultEvent f;
      std::string kind_name;
      if (!(ls >> kind_name >> f.time >> f.proc >> f.peer >> f.msg >>
            f.magnitude)) {
        fail(error, "bad fault line: " + line);
        return std::nullopt;
      }
      f.kind = fault_kind_from_name(kind_name);
      if (f.kind == FaultKind::kFaultKindCount) {
        fail(error, "unknown fault kind: " + kind_name);
        return std::nullopt;
      }
      trace.faults.push_back(f);
    } else {
      fail(error, "unknown line kind: " + kind);
      return std::nullopt;
    }
  }
  // gave_up / give_up_time are not serialized as op fields: they are fully
  // determined by the kOperationGivenUp fault events (magnitude = token),
  // so they are reconstructed here and the v1 grammar -- and every archived
  // trace hash -- stays unchanged.
  for (const FaultEvent& f : trace.faults) {
    if (f.kind != FaultKind::kOperationGivenUp) continue;
    for (OperationRecord& rec : trace.ops) {
      if (rec.token != f.magnitude) continue;
      rec.gave_up = true;
      rec.give_up_time = f.time;
      break;
    }
  }
  return trace;
}

std::optional<Trace> trace_from_string(const std::string& text, std::string* error) {
  std::istringstream is(text);
  return read_trace(is, error);
}

}  // namespace linbound
