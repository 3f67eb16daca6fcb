#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/system.h"
#include "types/queue_type.h"
#include "types/register_type.h"

namespace linbound {
namespace {

TEST(ValueParse, RoundTripsEveryShape) {
  const Value values[] = {
      Value::unit(),
      Value(0),
      Value(-42),
      Value(std::int64_t{9000000000}),
      Value(true),
      Value(false),
      Value("hello world"),
      Value(""),
      Value(Value::List{}),
      Value(Value::List{Value(1), Value("x"),
                        Value(Value::List{Value(false), Value::unit()})}),
  };
  for (const Value& v : values) {
    auto parsed = Value::parse(v.to_string());
    ASSERT_TRUE(parsed.has_value()) << v.to_string();
    EXPECT_EQ(*parsed, v) << v.to_string();
  }
}

TEST(ValueParse, RejectsMalformedInput) {
  for (const char* bad : {"", "(", "[1, 2", "\"unterminated", "12x", "tru",
                          "1 2", "[]]", "--3"}) {
    EXPECT_FALSE(Value::parse(bad).has_value()) << bad;
  }
}

TEST(TraceIo, RoundTripsHandBuiltTrace) {
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.clock_offsets = {0, 150, -20};
  trace.end_time = 5000;
  MessageRecord m;
  m.id = 7;
  m.from = 0;
  m.to = 2;
  m.send_time = 100;
  m.recv_time = 900;
  trace.messages.push_back(m);
  m.id = 8;
  m.recv_time = kNoTime;  // undelivered
  trace.messages.push_back(m);
  OperationRecord rec;
  rec.token = 0;
  rec.proc = 1;
  rec.op = queue_ops::enqueue(5);
  rec.invoke_time = 200;
  rec.response_time = 500;
  rec.ret = Value::unit();
  trace.ops.push_back(rec);
  rec.token = 1;
  rec.op = queue_ops::dequeue();
  rec.invoke_time = 600;
  rec.response_time = kNoTime;  // pending
  trace.ops.push_back(rec);

  std::string error;
  auto parsed = trace_from_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->timing.d, 1000);
  EXPECT_EQ(parsed->clock_offsets, trace.clock_offsets);
  EXPECT_EQ(parsed->end_time, 5000);
  ASSERT_EQ(parsed->messages.size(), 2u);
  EXPECT_EQ(parsed->messages[0].recv_time, 900);
  EXPECT_FALSE(parsed->messages[1].delivered());
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].op.args.at(0), Value(5));
  EXPECT_EQ(parsed->ops[0].ret, Value::unit());
  EXPECT_FALSE(parsed->ops[1].completed());
  // Serialization is canonical: round-trip twice gives identical text.
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(trace));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

/// Every line kind and field shape of `trace v1`: a fault line per
/// FaultKind, `-` for kNoTime, negative offsets, INT64_MIN/INT64_MAX ticks,
/// and unit/int/bool/string/nested-list values as rets and args.
Trace golden_trace() {
  constexpr Tick kMin = std::numeric_limits<Tick>::min();
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.clock_offsets = {0, -150, 299, kMax};
  trace.end_time = kMax;
  MessageRecord m;
  m.id = 0;
  m.from = 0;
  m.to = 2;
  m.send_time = 100;
  m.recv_time = 900;
  trace.messages.push_back(m);
  m.id = 1;
  m.recv_time = kNoTime;  // undelivered: `-`
  trace.messages.push_back(m);
  m.id = kMax;
  m.from = 2;
  m.to = 0;
  m.send_time = -7;
  m.recv_time = kMax;
  trace.messages.push_back(m);

  OperationRecord rec;
  rec.token = 0;
  rec.proc = 1;
  rec.op.code = 0;
  rec.op.args = {Value(5)};
  rec.invoke_time = 200;
  rec.response_time = 500;
  rec.ret = Value::unit();
  trace.ops.push_back(rec);
  rec.token = 1;
  rec.proc = 0;
  rec.op.code = 1;
  rec.op.args = {};
  rec.invoke_time = kNoTime;
  rec.response_time = kNoTime;  // pending: `-`
  rec.ret = Value(std::numeric_limits<std::int64_t>::min());
  trace.ops.push_back(rec);
  rec.token = -3;
  rec.proc = 2;
  rec.op.code = -12;
  rec.op.args = {Value(true), Value("a b")};
  rec.invoke_time = kMin + 1;
  rec.response_time = kMax;
  rec.ret = Value(false);
  trace.ops.push_back(rec);
  rec.token = std::numeric_limits<std::int64_t>::max();
  rec.proc = 3;
  rec.op.code = 2147483647;
  rec.op.args = {Value(""),
                 Value(Value::List{Value(-1), Value(Value::List{}),
                                   Value(Value::List{Value("x"), Value::unit(),
                                                     Value(true)})})};
  rec.invoke_time = 0;
  rec.response_time = 9000000000;
  rec.ret = Value(Value::List{Value(std::numeric_limits<std::int64_t>::max()),
                              Value("s"), Value(Value::List{Value(false)})});
  trace.ops.push_back(rec);

  for (int k = 0; k < static_cast<int>(FaultKind::kFaultKindCount); ++k) {
    FaultEvent f;
    f.kind = static_cast<FaultKind>(k);
    f.time = k == 0 ? kMin : (k == 1 ? kMax : 100 * k);
    f.proc = k % 2 == 0 ? kNoProcess : k;
    f.peer = k % 3 == 0 ? kNoProcess : k - 1;
    f.msg = k % 2 == 0 ? -1 : k + 10;
    f.magnitude = k == 2 ? kMin : -k;
    trace.faults.push_back(f);
  }
  return trace;
}

TEST(TraceIo, GoldenBytes) {
  // Recorded from the iostream-era writer that every archived trace hash
  // was taken over: the serialization must reproduce it byte for byte.
  const std::string golden =
      "trace v1\n"
      "timing 1000 400 300\n"
      "offsets 0 -150 299 9223372036854775807\n"
      "end 9223372036854775807\n"
      "msg 0 0 2 100 900\n"
      "msg 1 0 2 100 -\n"
      "msg 9223372036854775807 2 0 -7 9223372036854775807\n"
      "op 0 1 0 200 500\t()\t5\n"
      "op 1 0 1 - -\t-9223372036854775808\n"
      "op -3 2 -12 -9223372036854775807 9223372036854775807"
      "\tfalse\ttrue\t\"a b\"\n"
      "op 9223372036854775807 3 2147483647 0 9000000000"
      "\t[9223372036854775807, \"s\", [false]]"
      "\t\"\"\t[-1, [], [\"x\", (), true]]\n"
      "fault message-dropped -9223372036854775808 -1 -1 -1 0\n"
      "fault message-duplicated 9223372036854775807 1 0 11 -1\n"
      "fault delay-spike 200 -1 1 -1 -9223372036854775808\n"
      "fault process-stalled 300 3 -1 13 -3\n"
      "fault process-crashed 400 -1 3 -1 -4\n"
      "fault operation-given-up 500 5 4 15 -5\n"
      "fault process-recovered 600 -1 -1 -1 -6\n"
      "fault mode-downgrade 700 7 6 17 -7\n"
      "fault mode-upgrade 800 -1 7 -1 -8\n";
  const Trace trace = golden_trace();
  EXPECT_EQ(trace_to_string(trace), golden);
  EXPECT_EQ(hash_trace(trace), fnv1a(golden));

  std::string error;
  auto parsed = trace_from_string(golden, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(trace_to_string(*parsed), golden);

  // Many lines, and one value longer than any formatting buffer: the hash
  // still covers exactly the serialized bytes, in order.
  Trace big = golden_trace();
  for (int copy = 0; copy < 300; ++copy) {
    big.ops.insert(big.ops.end(), trace.ops.begin(), trace.ops.end());
  }
  big.ops[7].ret = Value(std::string(100000, 'v'));
  const std::string text = trace_to_string(big);
  ASSERT_GT(text.size(), 150000u);
  EXPECT_EQ(hash_trace(big), fnv1a(text));
  parsed = trace_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->ops.size(), big.ops.size());
  EXPECT_EQ(parsed->ops[7].ret, big.ops[7].ret);
  EXPECT_EQ(trace_to_string(*parsed), text);
}

TEST(TraceIo, RoundTripsARealRun) {
  auto model = std::make_shared<RegisterModel>();
  SystemOptions o;
  o.n = 3;
  o.timing = SystemTiming{1000, 400, 100};
  o.delays = std::make_shared<UniformDelayPolicy>(o.timing, 5);
  ReplicaSystem system(model, o);
  system.sim().invoke_at(1000, 0, reg::write(3));
  system.sim().invoke_at(1200, 1, reg::rmw(4));
  system.sim().invoke_at(3000, 2, reg::read());
  system.run_to_completion();

  const Trace& original = system.sim().trace();
  std::string error;
  auto parsed = trace_from_string(trace_to_string(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(original));
  // The reloaded trace audits identically and yields the same history.
  EXPECT_EQ(parsed->audit().admissible, original.audit().admissible);
  EXPECT_EQ(History::from_trace(*parsed).size(),
            History::from_trace(original).size());
}

TEST(TraceIo, ReconstructsGiveUpFromFaultEvents) {
  // gave_up / give_up_time are not op fields on the wire; the reader
  // rebuilds them from kOperationGivenUp fault events (magnitude = token),
  // keeping the v1 grammar and archived trace hashes unchanged.
  Trace trace;
  trace.timing = SystemTiming{1000, 400, 300};
  trace.end_time = 6000;
  OperationRecord rec;
  rec.token = 0;
  rec.proc = 0;
  rec.op = reg::write(1);
  rec.invoke_time = 200;
  rec.response_time = 900;
  rec.ret = Value::unit();
  trace.ops.push_back(rec);
  rec.token = 1;
  rec.proc = 1;
  rec.op = reg::read();
  rec.invoke_time = 600;
  rec.response_time = kNoTime;
  rec.ret = Value();
  rec.gave_up = true;
  rec.give_up_time = 4200;
  trace.ops.push_back(rec);
  FaultEvent f;
  f.kind = FaultKind::kOperationGivenUp;
  f.time = 4200;
  f.proc = 1;
  f.magnitude = 1;  // the abandoned token
  trace.faults.push_back(f);

  std::string error;
  auto parsed = trace_from_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_FALSE(parsed->ops[0].gave_up);
  EXPECT_TRUE(parsed->ops[1].gave_up);
  EXPECT_EQ(parsed->ops[1].give_up_time, 4200);
  EXPECT_FALSE(parsed->ops[1].completed());
  EXPECT_EQ(trace_to_string(*parsed), trace_to_string(trace));
  EXPECT_EQ(hash_trace(*parsed), hash_trace(trace));
}

TEST(TraceIo, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(trace_from_string("not a trace", &error).has_value());
  EXPECT_FALSE(trace_from_string("trace v1\nbogus line", &error).has_value());
  EXPECT_FALSE(
      trace_from_string("trace v1\nmsg 1 2", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace linbound
