// Unit tests for message envelopes, the in-process bus, and the registry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "fault/fault.h"
#include "net/bus.h"
#include "net/message.h"
#include "net/parallel_delivery.h"
#include "net/registry.h"
#include "obs/trace.h"

namespace vmp::net {
namespace {

// -- Message ---------------------------------------------------------------------

TEST(MessageTest, RequestFactorySetsHeader) {
  Message m = Message::request("vmplant.create", "shop", "plant0", "req-1");
  EXPECT_EQ(m.kind(), MessageKind::kRequest);
  EXPECT_EQ(m.service(), "vmplant.create");
  EXPECT_EQ(m.from(), "shop");
  EXPECT_EQ(m.to(), "plant0");
  EXPECT_EQ(m.correlation(), "req-1");
  EXPECT_FALSE(m.is_fault());
}

TEST(MessageTest, ResponseSwapsDirection) {
  Message req = Message::request("svc", "a", "b", "c1");
  Message resp = Message::response_to(req);
  EXPECT_EQ(resp.kind(), MessageKind::kResponse);
  EXPECT_EQ(resp.from(), "b");
  EXPECT_EQ(resp.to(), "a");
  EXPECT_EQ(resp.correlation(), "c1");
}

TEST(MessageTest, FaultCarriesError) {
  Message req = Message::request("svc", "a", "b", "c1");
  Message fault = Message::fault_to(
      req, util::Error(util::ErrorCode::kResourceExhausted, "plant full"));
  EXPECT_TRUE(fault.is_fault());
  const util::Error err = fault.fault_error();
  EXPECT_EQ(err.code(), util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(err.message(), "plant full");
}

TEST(MessageTest, SerializeDeserializeRoundTrip) {
  Message m = Message::request("vmshop.create", "client", "vmshop", "r-9");
  m.body().add_child("create-request").set_attr("id", "r-9");
  m.body().child("create-request")->add_child("note").set_text("a<b&c");

  auto parsed = Message::deserialize(m.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().service(), "vmshop.create");
  EXPECT_EQ(parsed.value().correlation(), "r-9");
  ASSERT_NE(parsed.value().body().child("create-request"), nullptr);
  EXPECT_EQ(parsed.value().body().child("create-request")->child_text("note"),
            "a<b&c");
}

TEST(MessageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Message::deserialize("not xml").ok());
  EXPECT_FALSE(Message::deserialize("<other/>").ok());
  EXPECT_FALSE(Message::deserialize("<message kind=\"bogus\"/>").ok());
}

TEST(MessageTest, DeserializeRejectsMalformedSpan) {
  const auto wire = [](const std::string& span) {
    return "<message correlation=\"c\" from=\"a\" kind=\"request\" "
           "service=\"s\" span=\"" +
           span + "\" to=\"b\" trace=\"trace-1\"/>";
  };
  for (const char* bad : {"-1", "+7", " 7", "7 ", "12abc", "", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    auto parsed = Message::deserialize(wire(bad));
    ASSERT_FALSE(parsed.ok()) << "span=\"" << bad << "\" decoded";
    EXPECT_EQ(parsed.error().code(), util::ErrorCode::kParseError) << bad;
  }
  // A span without a trace is checked the same way.
  EXPECT_FALSE(Message::deserialize("<message kind=\"request\" span=\"-1\"/>")
                   .ok());

  auto max = Message::deserialize(wire("18446744073709551615"));
  ASSERT_TRUE(max.ok()) << max.error().to_string();
  EXPECT_EQ(max.value().trace().span_id, 18446744073709551615ull);
  EXPECT_EQ(max.value().trace().trace_id, "trace-1");
  auto zero = Message::deserialize(wire("0"));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value().trace().span_id, 0u);
}

TEST(MessageTest, TracedMessageRoundTripsItsSpan) {
  Message m = Message::request("svc", "a", "b", "c");
  m.set_trace(obs::TraceContext{"trace-9", 12345});
  auto parsed = Message::deserialize(m.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().trace().trace_id, "trace-9");
  EXPECT_EQ(parsed.value().trace().span_id, 12345u);
}

TEST(MessageTest, FaultErrorOnNonFaultBody) {
  Message m = Message::request("svc", "a", "b", "c");
  EXPECT_EQ(m.fault_error().code(), util::ErrorCode::kInternal);
}

// -- MessageBus -------------------------------------------------------------------

TEST(BusTest, CallRoutesToHandler) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("echo", [](const Message& m) {
                   Message r = Message::response_to(m);
                   r.body().add_child("echo").set_text(
                       m.body().child_text("data"));
                   return r;
                 }).ok());

  Message m = Message::request("echo.svc", "caller", "echo", "c-1");
  m.body().add_child("data").set_text("hello");
  auto response = bus.call(m);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().body().child_text("echo"), "hello");
}

TEST(BusTest, UnknownEndpointIsUnavailable) {
  MessageBus bus;
  auto r = bus.call(Message::request("svc", "a", "ghost", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kUnavailable);
}

TEST(BusTest, DuplicateRegistrationRejected) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_FALSE(bus.register_endpoint("a", [](const Message& m) {
                    return Message::response_to(m);
                  }).ok());
}

TEST(BusTest, UnregisterRemovesEndpoint) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_TRUE(bus.has_endpoint("a"));
  ASSERT_TRUE(bus.unregister_endpoint("a").ok());
  EXPECT_FALSE(bus.has_endpoint("a"));
  EXPECT_FALSE(bus.unregister_endpoint("a").ok());
}

TEST(BusTest, DownEndpointRefusesCalls) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  bus.set_down("p", true);
  auto r = bus.call(Message::request("svc", "a", "p", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kUnavailable);
  bus.set_down("p", false);
  EXPECT_TRUE(bus.call(Message::request("svc", "a", "p", "c")).ok());
}

TEST(BusTest, DropRateProducesTimeouts) {
  MessageBus bus(7);
  ASSERT_TRUE(bus.register_endpoint("flaky", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  bus.set_drop_rate("flaky", 1.0);
  auto r = bus.call(Message::request("svc", "a", "flaky", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kTimeout);

  bus.set_drop_rate("flaky", 0.5);
  int timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    if (!bus.call(Message::request("svc", "a", "flaky", "c")).ok()) ++timeouts;
  }
  EXPECT_GT(timeouts, 50);
  EXPECT_LT(timeouts, 150);
}

TEST(BusTest, StatsCountCallsAndBytes) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  const auto before = bus.calls_total();
  (void)bus.call(Message::request("svc", "a", "p", "c"));
  EXPECT_EQ(bus.calls_total(), before + 1);
  EXPECT_GT(bus.bytes_total(), 0u);
}

TEST(BusTest, PayloadSurvivesFullWireEncoding) {
  MessageBus bus;
  // The handler sees a *decoded copy*, proving requests round-trip the
  // wire format rather than sharing in-memory structure.
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   Message r = Message::response_to(m);
                   r.body().add_child("len").set_text(std::to_string(
                       m.body().child("blob")->text().size()));
                   return r;
                 }).ok());
  Message m = Message::request("svc", "a", "p", "c");
  m.body().add_child("blob").set_text(std::string(10000, 'x') + "<&>\"'");
  auto r = bus.call(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().body().child_text("len"), "10005");
}

TEST(BusTest, CallExpectingSuccessUnwrapsFaults) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::fault_to(
                       m, util::Error(util::ErrorCode::kNoMatchingImage,
                                      "nothing cached"));
                 }).ok());
  auto r = call_expecting_success(&bus,
                                  Message::request("svc", "a", "p", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kNoMatchingImage);
  EXPECT_EQ(r.error().message(), "nothing cached");
}

TEST(BusTest, EndpointsListed) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("b", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_EQ(bus.endpoints(), (std::vector<std::string>{"a", "b"}));
}

// -- Fan-out -----------------------------------------------------------------

/// `count` stub endpoints ("ep-000", ...) that answer with their index and
/// the request's payload, delivered in parallel by wide fan-outs.  Every
/// 11th is down and, when `drops`, every 7th drops calls at p=0.3.
std::vector<std::string> add_stubs(MessageBus* bus, std::size_t count,
                                   bool drops = true) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = std::to_string(i);
    while (name.size() < 3) name.insert(0, 1, '0');
    name.insert(0, "ep-");
    names.push_back(name);
    EXPECT_TRUE(bus->register_endpoint(
                       name,
                       [i](const Message& m) {
                         Message r = Message::response_to(m);
                         xml::Element& e = r.body().add_child("answer");
                         e.set_attr("index", std::to_string(i));
                         e.set_attr("data", m.body().child_text("data"));
                         return r;
                       },
                       Delivery::kParallel)
                    .ok());
    if (drops && i % 7 == 3) bus->set_drop_rate(name, 0.3);
    if (i % 11 == 5) bus->set_down(name, true);
  }
  return names;
}

/// A fan-out's results by destination (nullopt: not sent).
std::vector<std::optional<util::Result<Message>>> fan_out_all(
    MessageBus& bus, const Message& m, const std::vector<std::string>& to,
    const MessageBus::FanOutCheck& check = {}) {
  std::vector<std::optional<util::Result<Message>>> out(to.size());
  bus.fan_out(m, to, check, [&out](std::size_t i, util::Result<Message> r) {
    out[i] = std::move(r);
  });
  return out;
}

/// What one destination's call left behind, comparable across runs.
std::string outcome(const util::Result<Message>& r) {
  if (!r.ok()) return "error " + r.error().to_string();
  const xml::Element* answer = r.value().body().child("answer");
  return "to=" + r.value().to() + " from=" + r.value().from() +
         " index=" + (answer ? answer->attr("index") : "-") +
         " data=" + (answer ? answer->attr("data") : "-");
}

/// Everything order-sensitive a run produced.
struct RunRecord {
  std::vector<std::string> outcomes;
  std::vector<std::string> firings;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  bool operator==(const RunRecord&) const = default;
};

/// The caller's per-destination check: a shop.bid consult, like the
/// shop's bid deadline.
bool bid_check(const std::string& to) {
  return fault::check(fault::points::kShopBid, to).ok();
}

RunRecord fan_out_run(std::uint64_t seed, bool serial_reference) {
  auto plan = fault::FaultPlan::parse(
      "shop.bid:p=0.2;bus.send:p=0.2;bus.timeout:after=5,times=3", seed);
  EXPECT_TRUE(plan.ok());
  fault::ScopedFaultPlan armed(plan.value());
  MessageBus bus(seed);
  const std::vector<std::string> to = add_stubs(&bus, 96);
  Message m = Message::request("stub.svc", "caller", "", "corr-1");
  m.body().add_child("data").set_text("payload");

  RunRecord record;
  if (serial_reference) {
    // Today's loop: check, then one call per destination, in order.
    for (const std::string& address : to) {
      if (!bid_check(address)) {
        record.outcomes.push_back("skipped");
        continue;
      }
      m.set_to(address);
      record.outcomes.push_back(outcome(bus.call(m)));
    }
  } else {
    std::vector<char> skipped(to.size(), 0);
    auto results = fan_out_all(bus, m, to, [&](std::size_t i) {
      skipped[i] = !bid_check(to[i]);
      return !skipped[i];
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].has_value(), !skipped[i]);
      record.outcomes.push_back(skipped[i] ? "skipped" : outcome(*results[i]));
    }
  }
  record.firings = fault::FaultRegistry::instance().sequence();
  record.calls = bus.calls_total();
  record.bytes = bus.bytes_total();
  return record;
}

TEST(FanOutTest, WideFanOutUnderFaultsMatchesSerialLoop) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RunRecord reference = fan_out_run(seed, true);
    const RunRecord fanned = fan_out_run(seed, false);
    EXPECT_EQ(fanned.outcomes, reference.outcomes) << "seed " << seed;
    EXPECT_EQ(fanned.firings, reference.firings) << "seed " << seed;
    EXPECT_EQ(fanned.calls, reference.calls) << "seed " << seed;
    EXPECT_EQ(fanned.bytes, reference.bytes) << "seed " << seed;
    // The plan and the drop rates really did cut into the fan-out.
    EXPECT_FALSE(reference.firings.empty());
  }
}

TEST(FanOutTest, WireBytesMatchSerialLoopOnBothFormats) {
  for (WireFormat wire : {WireFormat::kXml, WireFormat::kBinary}) {
    std::uint64_t bytes[2] = {0, 0};
    for (int fanned = 0; fanned < 2; ++fanned) {
      MessageBus bus(BusConfig{wire, 3});
      const std::vector<std::string> to = add_stubs(&bus, 40);
      Message m = Message::request("stub.svc", "caller", "", "corr-2");
      m.body().add_child("data").set_text("x<y&z");
      if (fanned) {
        (void)fan_out_all(bus, m, to);
      } else {
        for (const std::string& address : to) {
          m.set_to(address);
          (void)bus.call(m);
        }
      }
      bytes[fanned] = bus.bytes_total();
    }
    EXPECT_EQ(bytes[1], bytes[0]) << wire_format_name(wire);
  }
}

/// The finished spans of one run, with span and trace ids renumbered from
/// the first id each run saw (the tracer's counters run on across runs).
std::vector<std::string> normalized_spans() {
  std::vector<obs::Span> spans = obs::Tracer::instance().spans();
  std::uint64_t base = UINT64_MAX;
  for (const obs::Span& s : spans) base = std::min(base, s.span_id);
  std::map<std::string, int> traces;
  std::vector<std::string> out;
  for (const obs::Span& s : spans) {
    traces.emplace(s.trace_id, static_cast<int>(traces.size()));
    out.push_back(std::to_string(s.span_id - base) + " parent=" +
                  (s.parent_id == 0 ? "root"
                                    : std::to_string(s.parent_id - base)) +
                  " trace=" + std::to_string(traces[s.trace_id]) + " " +
                  s.name + " " + s.detail + " " + s.status);
  }
  return out;
}

TEST(FanOutTest, TracedFanOutOpensTheSerialLoopsSpans) {
  std::vector<std::string> runs[2];
  for (int fanned = 0; fanned < 2; ++fanned) {
    auto plan = fault::FaultPlan::parse("bus.send:p=0.3", 11);
    ASSERT_TRUE(plan.ok());
    fault::ScopedFaultPlan armed(plan.value());
    MessageBus bus(5);
    const std::vector<std::string> to = add_stubs(&bus, 48);
    obs::Tracer::instance().arm();
    {
      obs::ScopedSpan root("test.root", "test");
      Message m = Message::request("stub.svc", "caller", "", "corr-3");
      if (fanned) {
        (void)fan_out_all(bus, m, to);
      } else {
        for (const std::string& address : to) {
          m.set_to(address);
          (void)bus.call(m);
        }
      }
    }
    runs[fanned] = normalized_spans();
    obs::Tracer::instance().disarm();
  }
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[0].size(), 49u);  // 48 bus.call spans + the root
}

TEST(FanOutTest, FanOutFromInsideAHandlerCompletes) {
  // Every outer handler fans out again on the same bus while helpers may
  // all be busy with outer deliveries: caller-runs delivery finishes it.
  MessageBus bus;
  const std::vector<std::string> inner = add_stubs(&bus, 32, false);
  std::vector<std::string> outer;
  for (int i = 0; i < 32; ++i) {
    outer.push_back("outer-" + std::to_string(i));
    ASSERT_TRUE(bus.register_endpoint(
                       outer.back(),
                       [&bus, &inner](const Message& m) {
                         Message probe = Message::request(
                             "stub.svc", m.to(), "", m.correlation());
                         probe.body().add_child("data").set_text("inner");
                         int answered = 0;
                         for (const auto& r : fan_out_all(bus, probe, inner)) {
                           answered += r.has_value() && r->ok() ? 1 : 0;
                         }
                         Message reply = Message::response_to(m);
                         reply.body().add_child("answered").set_text(
                             std::to_string(answered));
                         return reply;
                       },
                       Delivery::kParallel)
                    .ok());
  }
  // Endpoints 5, 16 and 27 of the inner set are down (i % 11 == 5): 29
  // answer.
  Message m = Message::request("outer.svc", "caller", "", "corr-4");
  for (const auto& r : fan_out_all(bus, m, outer)) {
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->ok()) << r->error().to_string();
    EXPECT_EQ(r->value().body().child_text("answered"), "29");
  }
}

TEST(FanOutTest, EndpointUnregisteredMidFanOutIsUnavailable) {
  // The bus.timeout consult of ep-050 runs after the caller's check for it
  // passed: the decider pulls the endpoint right then, and lets it through.
  std::string outcomes[2];
  for (int fanned = 0; fanned < 2; ++fanned) {
    auto plan = fault::FaultPlan::parse("bus.timeout:target=ep-050", 1);
    ASSERT_TRUE(plan.ok());
    fault::ScopedFaultPlan armed(plan.value());
    MessageBus bus;
    const std::vector<std::string> to = add_stubs(&bus, 64);
    fault::FaultRegistry::instance().set_decider(
        [&bus](const std::string&, const std::string& detail) {
          (void)bus.unregister_endpoint(detail);
          return false;
        });
    Message m = Message::request("stub.svc", "caller", "", "corr-5");
    std::vector<std::string> got;
    if (fanned) {
      for (const auto& r : fan_out_all(bus, m, to)) got.push_back(outcome(*r));
    } else {
      for (const std::string& address : to) {
        m.set_to(address);
        got.push_back(outcome(bus.call(m)));
      }
    }
    EXPECT_EQ(got[50], "error UNAVAILABLE: no endpoint at ep-050");
    EXPECT_FALSE(bus.has_endpoint("ep-050"));
    for (const std::string& o : got) outcomes[fanned] += o + "\n";
  }
  EXPECT_EQ(outcomes[1], outcomes[0]);
}

TEST(FanOutTest, SerialEndpointsStayInTheOrderedLoop) {
  // A kSerial endpoint's handler runs on the caller, in destination
  // order, even inside a wide fan-out of kParallel ones.
  MessageBus bus;
  std::vector<std::string> to = add_stubs(&bus, 32);
  std::vector<int> order;
  const auto caller = std::this_thread::get_id();
  for (int i = 0; i < 3; ++i) {
    const std::string name = "serial-" + std::to_string(i);
    ASSERT_TRUE(bus.register_endpoint(name, [&order, i, caller](
                                                const Message& m) {
                     EXPECT_EQ(std::this_thread::get_id(), caller);
                     order.push_back(i);
                     return Message::response_to(m);
                   }).ok());
    to.insert(to.begin() + 10 * i, name);
  }
  const auto results =
      fan_out_all(bus, Message::request("s", "c", "", "x"), to);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(results[0]->ok());
  EXPECT_TRUE(results[10]->ok());
  EXPECT_TRUE(results[20]->ok());
}

TEST(FanOutTest, AHandlerThrowOnAHelperReachesTheCaller) {
  MessageBus bus;
  std::vector<std::string> to = add_stubs(&bus, 40, false);
  ASSERT_TRUE(bus.register_endpoint(
                     "thrower",
                     [](const Message&) -> Message {
                       throw std::runtime_error("handler bug");
                     },
                     Delivery::kParallel)
                  .ok());
  to.push_back("thrower");
  EXPECT_THROW(
      (void)fan_out_all(bus, Message::request("s", "c", "", "x"), to),
      std::runtime_error);
  // A kSerial handler throwing on the caller, after parallel legs went
  // out: the fan-out joins them before the throw leaves it.
  ASSERT_TRUE(bus.register_endpoint("serial-thrower", [](const Message&)
                                                          -> Message {
                   throw std::runtime_error("serial handler bug");
                 }).ok());
  to.back() = "serial-thrower";
  EXPECT_THROW(
      (void)fan_out_all(bus, Message::request("s", "c", "", "x"), to),
      std::runtime_error);
  // The bus is still usable.
  EXPECT_TRUE(bus.call(Message::request("s", "c", "ep-000", "x")).ok());
}

TEST(FanOutTest, SlowWireLegsAreTakenOverAndHandledOnce) {
  // Large bodies make each leg's decode and encode outlast the caller's
  // stall timeout, so the caller takes over legs the helper still holds:
  // both threads decode (or encode), one runs the handler (or commit).
  // Each handler still runs once per call, and every result and total
  // equals a serial loop's.
  constexpr std::size_t kEndpoints = MessageBus::kParallelWidth;
  constexpr int kRounds = 6;
  const std::string payload(48 * 1024, 'p');
  std::vector<std::string> outcomes[2];
  std::uint64_t calls[2] = {0, 0};
  std::uint64_t bytes[2] = {0, 0};
  for (int fanned = 0; fanned < 2; ++fanned) {
    std::vector<std::atomic<int>> handled(kEndpoints);
    MessageBus bus;
    std::vector<std::string> to;
    for (std::size_t i = 0; i < kEndpoints; ++i) {
      to.push_back("slow-" + std::to_string(i));
      ASSERT_TRUE(bus.register_endpoint(
                         to.back(),
                         [&handled, i](const Message& m) {
                           handled[i].fetch_add(1);
                           Message r = Message::response_to(m);
                           r.body().add_child("echo").set_text(
                               m.body().child_text("data"));
                           return r;
                         },
                         Delivery::kParallel)
                      .ok());
    }
    Message m = Message::request("slow.svc", "caller", "", "corr-6");
    m.body().add_child("data").set_text(payload);
    const auto record = [&](const util::Result<Message>& r) {
      outcomes[fanned].push_back(
          r.ok() ? r.value().from() + " " +
                       std::to_string(
                           r.value().body().child_text("echo").size())
                 : "error " + r.error().to_string());
    };
    for (int round = 0; round < kRounds; ++round) {
      if (fanned) {
        for (const auto& r : fan_out_all(bus, m, to)) record(*r);
      } else {
        for (const std::string& address : to) {
          m.set_to(address);
          record(bus.call(m));
        }
      }
    }
    for (const auto& count : handled) EXPECT_EQ(count.load(), kRounds);
    calls[fanned] = bus.calls_total();
    bytes[fanned] = bus.bytes_total();
  }
  EXPECT_EQ(outcomes[1], outcomes[0]);
  EXPECT_EQ(outcomes[0].front(), "slow-0 " + std::to_string(payload.size()));
  EXPECT_EQ(calls[1], calls[0]);
  EXPECT_EQ(bytes[1], bytes[0]);
}

TEST(FanOutTest, NarrowFanOutStaysOnTheCaller) {
  // Below kParallelWidth a fan-out is the serial loop: every handler runs
  // on the caller's thread, kParallel or not.
  MessageBus bus;
  std::vector<std::string> to;
  std::vector<std::thread::id> ran_on;
  for (std::size_t i = 0; i + 1 < MessageBus::kParallelWidth; ++i) {
    to.push_back("narrow-" + std::to_string(i));
    ASSERT_TRUE(bus.register_endpoint(
                       to.back(),
                       [&ran_on](const Message& m) {
                         ran_on.push_back(std::this_thread::get_id());
                         return Message::response_to(m);
                       },
                       Delivery::kParallel)
                    .ok());
  }
  for (const auto& r : fan_out_all(bus, Message::request("s", "c", "", "x"), to)) {
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->ok());
  }
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(
                        to.size(), std::this_thread::get_id()));
}

TEST(FanOutTest, AFanOutWakesOneHelperPerParallelWidthLegs) {
  // Legs (rows) against pools of 0, 1, 3 and 63 helpers (columns).
  const std::size_t pools[] = {0, 1, 3, 63};
  const std::map<std::size_t, std::vector<std::size_t>> expected{
      {31, {0, 0, 0, 0}},   {32, {0, 1, 1, 1}}, {63, {0, 1, 1, 1}},
      {64, {0, 1, 2, 2}},   {256, {0, 1, 3, 8}},
      {10000, {0, 1, 3, 63}}};
  for (const auto& [legs, woken] : expected) {
    for (std::size_t p = 0; p < std::size(pools); ++p) {
      EXPECT_EQ(MessageBus::helpers_to_wake(legs, pools[p]), woken[p])
          << legs << " legs, pool " << pools[p];
    }
  }
}

TEST(FanOutTest, DeclinedDestinationsAreNotSent) {
  MessageBus bus;
  const std::vector<std::string> to = add_stubs(&bus, 40);
  const auto results =
      fan_out_all(bus, Message::request("s", "c", "", "x"), to,
                  [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(bus.calls_total(), 20u);
  EXPECT_FALSE(results[1].has_value());
  ASSERT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[0]->ok());
}

/// What each handler of a fan-out, or of a serial loop of calls, was
/// handed: its address, its trace context (relative to the caller's root
/// span) and its body; and, untraced, the bytes the bus counted (a traced
/// run's span ids, and so their digits, run on from the run before).
std::vector<std::string> handed_requests(WireFormat wire, bool fanned,
                                         std::size_t width, bool traced) {
  MessageBus bus(BusConfig{wire, 7});
  std::vector<std::string> to;
  std::vector<std::string> seen(width + 1);
  obs::TraceContext root_context;
  const auto record = [&](std::size_t slot, const Message& m) {
    const obs::TraceContext& trace = m.trace();
    seen[slot] = m.to() + " trace=" +
                 (!trace.valid() ? "none"
                  : trace.trace_id == root_context.trace_id
                      ? "root span+" + std::to_string(trace.span_id -
                                                      root_context.span_id)
                      : "other") +
                 " " + m.body().to_compact_string();
    return Message::response_to(m);
  };
  // Addresses of several lengths, some of which need escaping; every
  // tenth endpoint is kSerial.
  for (std::size_t i = 0; i < width; ++i) {
    to.push_back("ep-" + std::to_string(i) + (i % 3 == 1 ? "&<x>" : "") +
                 std::string(i % 5 == 2 ? 140 : 0, 'n'));
    EXPECT_TRUE(bus.register_endpoint(
                       to.back(),
                       [&record, i](const Message& m) { return record(i, m); },
                       i % 10 == 9 ? Delivery::kSerial : Delivery::kParallel)
                    .ok());
  }
  if (traced) obs::Tracer::instance().arm();
  {
    obs::ScopedSpan root("test.root", "test");
    root_context = obs::current_context();
    Message m = Message::request("stub.svc", "caller", "", "corr-8");
    m.body().add_child("data").set_text("x<y&z");
    m.body().add_child("more").set_attr("quote", "\"'");
    if (fanned) {
      for (const auto& r : fan_out_all(bus, m, to)) {
        EXPECT_TRUE(r.has_value() && r->ok());
      }
    } else {
      for (const std::string& address : to) {
        m.set_to(address);
        EXPECT_TRUE(bus.call(m).ok());
      }
    }
  }
  if (traced) {
    obs::Tracer::instance().disarm();
  } else {
    seen.back() = "bytes=" + std::to_string(bus.bytes_total());
  }
  return seen;
}

TEST(FanOutTest, HandlersSeeTheBodyACallDelivers) {
  for (WireFormat wire : {WireFormat::kXml, WireFormat::kBinary}) {
    for (std::size_t width : {std::size_t{8}, MessageBus::kParallelWidth + 8}) {
      for (bool traced : {false, true}) {
        const std::vector<std::string> serial =
            handed_requests(wire, false, width, traced);
        const std::vector<std::string> fanned =
            handed_requests(wire, true, width, traced);
        EXPECT_EQ(fanned, serial)
            << wire_format_name(wire) << " " << width << " " << traced;
        EXPECT_NE(serial[0].find(traced ? "trace=root" : "trace=none"),
                  std::string::npos)
            << serial[0];
        EXPECT_NE(serial[0].find("x&lt;y&amp;z"), std::string::npos)
            << serial[0];
      }
    }
  }
}

TEST(FanOutTest, ParallelHandlersReadOneSharedBody) {
  // Every leg's handler reads the one decoded body, concurrently with the
  // others (run under the tsan preset, this checks the sharing).
  constexpr std::size_t kEndpoints = 96;
  MessageBus bus;
  std::vector<std::string> to;
  std::vector<const xml::Element*> bodies(kEndpoints, nullptr);
  std::vector<std::string> texts(kEndpoints);
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    to.push_back("reader-" + std::to_string(i));
    ASSERT_TRUE(bus.register_endpoint(
                       to.back(),
                       [&bodies, &texts, i](const Message& m) {
                         bodies[i] = &m.body();
                         texts[i] = m.body().to_compact_string();
                         Message r = Message::response_to(m);
                         r.body().add_child("n").set_text(
                             std::to_string(m.body().children().size()));
                         return r;
                       },
                       Delivery::kParallel)
                    .ok());
  }
  Message m = Message::request("read.svc", "caller", "", "corr-9");
  for (int i = 0; i < 32; ++i) {
    m.body().add_child("item").set_attr("i", std::to_string(i));
  }
  const std::string expected = m.body().to_compact_string();
  for (const auto& r : fan_out_all(bus, m, to)) {
    ASSERT_TRUE(r.has_value() && r->ok());
    EXPECT_EQ(r->value().body().child_text("n"), "32");
  }
  for (std::size_t i = 0; i < kEndpoints; ++i) {
    EXPECT_EQ(bodies[i], bodies[0]) << i;
    EXPECT_EQ(texts[i], expected) << i;
  }
}

// -- ParallelDelivery: a stalled helper's leg -------------------------------

/// Parks one thread at one point of a leg until released: a helper whose
/// thread or vCPU stops mid-leg.
class Parking {
 public:
  /// Parks the calling thread if it is the chosen one (once).
  void maybe_park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::this_thread::get_id() != chosen_ || parked_) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void choose(std::thread::id id) {
    std::lock_guard<std::mutex> lock(mu_);
    chosen_ = id;
  }
  void wait_parked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread::id chosen_;
  bool parked_ = false;
  bool released_ = false;
};

/// Where the helper parks: in the handler, or in its response leg's
/// encode or decode.
enum class ParkAt { kHandler, kEncode, kDecode };

/// One leg delivered by a helper thread that parks at `at`, while this
/// thread closes the job.  Returns the handler runs and commits seen
/// (1 and 1 when the leg was delivered exactly once).
struct StallRun {
  int handled = 0;
  std::vector<std::string> commits;
  bool joined_while_parked = false;
};

StallRun run_with_stalled_helper(ParkAt at) {
  Parking parking;
  std::atomic<int> handled{0};
  std::mutex commits_mu;
  StallRun out;
  const ParallelDelivery::Wire wire{
      [&](const std::string& bytes) {
        if (at == ParkAt::kDecode) parking.maybe_park();
        return Message::deserialize(bytes);
      },
      [&](const Message& message) {
        if (at == ParkAt::kEncode) parking.maybe_park();
        return message.serialize();
      }};
  const ParallelDelivery::Commit commit =
      [&](std::size_t index, util::Result<Message> result, std::size_t bytes) {
        std::lock_guard<std::mutex> lock(commits_mu);
        out.commits.push_back(std::to_string(index) + " " + outcome(result) +
                              " bytes=" + std::to_string(bytes > 0));
      };
  const auto handler = std::make_shared<const Handler>([&](const Message& m) {
    handled.fetch_add(1);
    if (at == ParkAt::kHandler) parking.maybe_park();
    Message r = Message::response_to(m);
    xml::Element& answer = r.body().add_child("answer");
    answer.set_attr("index", "7");
    answer.set_attr("data", m.body().child_text("data"));
    return r;
  });
  Message request = Message::request("stall.svc", "caller", "", "corr-7");
  request.body().add_child("data").set_text("payload");
  request.share_body();
  ParallelDelivery job(request, wire, 1, commit);

  std::thread helper([&] {
    parking.choose(std::this_thread::get_id());
    job.drain();
  });
  job.publish(0, "ep-7", handler, {});
  parking.wait_parked();
  std::atomic<bool> joined{false};
  std::thread caller([&] {
    EXPECT_EQ(job.close_and_join(), nullptr);
    joined = true;
  });
  // Far past the stall timeout: the caller has taken the leg over unless
  // the helper is inside the handler.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  out.joined_while_parked = joined.load();
  parking.release();
  caller.join();
  helper.join();
  out.handled = handled.load();
  return out;
}

const std::vector<std::string> kStalledLegCommit{
    "0 to=caller from=ep-7 index=7 data=payload bytes=1"};

TEST(ParallelDeliveryTest, CallerTakesOverALegStalledInItsResponseDecode) {
  const StallRun run = run_with_stalled_helper(ParkAt::kDecode);
  EXPECT_TRUE(run.joined_while_parked);
  EXPECT_EQ(run.handled, 1);
  EXPECT_EQ(run.commits, kStalledLegCommit);
}

TEST(ParallelDeliveryTest, CallerTakesOverALegStalledInItsResponse) {
  const StallRun run = run_with_stalled_helper(ParkAt::kEncode);
  EXPECT_TRUE(run.joined_while_parked);
  EXPECT_EQ(run.handled, 1);
  EXPECT_EQ(run.commits, kStalledLegCommit);
}

TEST(ParallelDeliveryTest, CallerWaitsForARunningHandler) {
  const StallRun run = run_with_stalled_helper(ParkAt::kHandler);
  EXPECT_FALSE(run.joined_while_parked);
  EXPECT_EQ(run.handled, 1);
  EXPECT_EQ(run.commits, kStalledLegCommit);
}

TEST(ParallelDeliveryTest, EveryLegOnceWithThreeDrainersOneParkedInAHandler) {
  // The caller and three drainers share one job; the drainer that takes
  // leg 0 parks in its handler until the caller has closed the job, and
  // leg 13's handler throws.
  constexpr std::size_t kLegs = 64;
  constexpr std::size_t kThrower = 13;
  Parking parking;
  std::vector<std::atomic<int>> handled(kLegs);
  std::vector<int> committed(kLegs, 0);
  std::mutex commits_mu;
  const ParallelDelivery::Wire wire{
      [](const std::string& bytes) { return Message::deserialize(bytes); },
      [](const Message& message) { return message.serialize(); }};
  const ParallelDelivery::Commit commit =
      [&](std::size_t index, util::Result<Message> result, std::size_t) {
        EXPECT_TRUE(result.ok());
        std::lock_guard<std::mutex> lock(commits_mu);
        ++committed[index];
      };
  const auto handler = std::make_shared<const Handler>([&](const Message& m) {
    const std::size_t index = std::stoul(m.to().substr(3));
    handled[index].fetch_add(1);
    if (index == 0) {
      parking.choose(std::this_thread::get_id());
      parking.maybe_park();
    }
    if (index == kThrower) throw std::runtime_error("leg 13");
    return Message::response_to(m);
  });
  Message request = Message::request("drain.svc", "caller", "", "corr-3");
  request.share_body();
  ParallelDelivery job(request, wire, kLegs, commit);

  std::vector<std::thread> drainers;
  for (int d = 0; d < 3; ++d) drainers.emplace_back([&job] { job.drain(); });
  // Leg 0 goes out alone: the caller delivers nothing until it closes, so
  // a drainer runs its handler.
  job.publish(0, "ep-0", handler, {});
  parking.wait_parked();
  for (std::size_t i = 1; i < kLegs; ++i) {
    job.publish(i, "ep-" + std::to_string(i), handler, {});
  }
  std::atomic<bool> joined{false};
  std::exception_ptr error;
  std::thread caller([&] {
    error = job.close_and_join();
    joined = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(joined.load());  // the caller waits for a running handler
  parking.release();
  caller.join();
  for (std::thread& drainer : drainers) drainer.join();

  for (std::size_t i = 0; i < kLegs; ++i) {
    EXPECT_EQ(handled[i].load(), 1) << i;
    EXPECT_EQ(committed[i], i == kThrower ? 0 : 1) << i;
  }
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "leg 13");
  }
}

// -- ServiceRegistry -------------------------------------------------------------------

TEST(RegistryTest, PublishDiscoverBind) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {{"backend", "vmware-gsx"}}});
  registry.publish({"vmplant", "plant1", {}});
  registry.publish({"vmshop", "shop", {}});

  const auto plants = registry.discover("vmplant");
  ASSERT_EQ(plants.size(), 2u);
  EXPECT_EQ(plants[0].address, "plant0");
  EXPECT_EQ(plants[1].address, "plant1");
  EXPECT_EQ(registry.discover("vmshop").size(), 1u);
  EXPECT_TRUE(registry.discover("nothing").empty());

  auto bound = registry.bind("plant0");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value().properties.at("backend"), "vmware-gsx");
  EXPECT_FALSE(registry.bind("ghost").ok());
}

TEST(RegistryTest, RepublishReplaces) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {{"v", "1"}}});
  registry.publish({"vmplant", "plant0", {{"v", "2"}}});
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.bind("plant0").value().properties.at("v"), "2");
}

TEST(RegistryTest, AddressSnapshotFollowsPublishAndWithdraw) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant1", {}});
  registry.publish({"vmshop", "shop", {}});
  registry.publish({"vmplant", "plant0", {}});
  const auto first = registry.addresses("vmplant");
  EXPECT_EQ(*first, (std::vector<std::string>{"plant0", "plant1"}));
  EXPECT_EQ(registry.addresses("vmplant"), first);  // shared, not copied
  EXPECT_TRUE(registry.addresses("nothing")->empty());

  registry.publish({"vmplant", "plant2", {}});
  EXPECT_EQ(*registry.addresses("vmplant"),
            (std::vector<std::string>{"plant0", "plant1", "plant2"}));
  EXPECT_EQ(*first, (std::vector<std::string>{"plant0", "plant1"}));
  EXPECT_TRUE(registry.withdraw("plant1"));
  EXPECT_EQ(*registry.addresses("vmplant"),
            (std::vector<std::string>{"plant0", "plant2"}));
  // A record republished under another type moves between snapshots.
  registry.publish({"vmshop", "plant0", {}});
  EXPECT_EQ(*registry.addresses("vmplant"),
            (std::vector<std::string>{"plant2"}));
  EXPECT_EQ(*registry.addresses("vmshop"),
            (std::vector<std::string>{"plant0", "shop"}));
}

TEST(RegistryTest, WithdrawRemoves) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {}});
  EXPECT_TRUE(registry.withdraw("plant0"));
  EXPECT_FALSE(registry.withdraw("plant0"));
  EXPECT_TRUE(registry.discover("vmplant").empty());
}

}  // namespace
}  // namespace vmp::net
