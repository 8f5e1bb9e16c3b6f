// Binary wire codec: frame discipline, per-object round trips, the
// bus-level wire-format negotiation, committed-fixture compatibility
// (the wire-compat CI job), and adversarial robustness sweeps — every
// truncation offset, every single-bit flip, and oversized length prefixes
// must fail CLEANLY (error Status, no crash, no giant allocation), and
// mutated payloads re-sealed past the checksum must fail or decode to a
// value that re-encodes stably — and `vmp_inspect snapshot` over the same
// fixtures and over frames whose tag no decoder speaks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/deployment.h"
#include "net/bus.h"
#include "net/codec.h"
#include "net/message.h"
#include "inspect_cli.h"
#include "util/bytebuffer.h"
#include "util/random.h"
#include "wire_fixtures.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

namespace codec = net::codec;
using util::ByteBuffer;
using util::ByteReader;

void expect_image_eq(const warehouse::GoldenImage& a,
                     const warehouse::GoldenImage& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.layout.dir, b.layout.dir);
  EXPECT_EQ(a.spec.os, b.spec.os);
  EXPECT_EQ(a.spec.memory_bytes, b.spec.memory_bytes);
  EXPECT_EQ(a.spec.suspended, b.spec.suspended);
  EXPECT_EQ(a.spec.disk.name, b.spec.disk.name);
  EXPECT_EQ(a.spec.disk.capacity_bytes, b.spec.disk.capacity_bytes);
  EXPECT_EQ(a.spec.disk.span_count, b.spec.disk.span_count);
  EXPECT_EQ(a.spec.disk.mode, b.spec.disk.mode);
  EXPECT_TRUE(a.guest == b.guest);
  EXPECT_EQ(a.performed, b.performed);
}

void expect_message_eq(const net::Message& a, const net::Message& b) {
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.service(), b.service());
  EXPECT_EQ(a.from(), b.from());
  EXPECT_EQ(a.to(), b.to());
  EXPECT_EQ(a.correlation(), b.correlation());
  EXPECT_EQ(a.trace().trace_id, b.trace().trace_id);
  EXPECT_EQ(a.trace().span_id, b.trace().span_id);
  EXPECT_EQ(a.body().to_compact_string(), b.body().to_compact_string());
}

void expect_classad_eq(const classad::ClassAd& a, const classad::ClassAd& b) {
  ASSERT_EQ(a.names(), b.names());
  for (const std::string& name : a.names()) {
    ASSERT_NE(a.lookup(name), nullptr);
    ASSERT_NE(b.lookup(name), nullptr);
    EXPECT_EQ(a.lookup(name)->to_string(), b.lookup(name)->to_string())
        << "attr " << name;
  }
}

// ---- ByteBuffer / ByteReader primitives ------------------------------------

TEST(ByteBufferTest, PrimitiveRoundTrip) {
  ByteBuffer buf;
  buf.put_u8(0xab);
  buf.put_u16(0xbeef);
  buf.put_u32(0xdeadbeefu);
  buf.put_u64(0x0123456789abcdefull);
  buf.put_bool(true);
  buf.put_varint(0);
  buf.put_varint(127);
  buf.put_varint(128);
  buf.put_varint(~0ull);
  buf.put_svarint(-1);
  buf.put_svarint(1);
  buf.put_svarint(-(1ll << 40));
  buf.put_string("hello");
  buf.put_string("");

  ByteReader in(buf.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_EQ(in.varint(), 127u);
  EXPECT_EQ(in.varint(), 128u);
  EXPECT_EQ(in.varint(), ~0ull);
  EXPECT_EQ(in.svarint(), -1);
  EXPECT_EQ(in.svarint(), 1);
  EXPECT_EQ(in.svarint(), -(1ll << 40));
  EXPECT_EQ(in.string_field(), "hello");
  EXPECT_EQ(in.string_field(), "");
  EXPECT_TRUE(in.done());
  EXPECT_TRUE(in.status().ok());
}

TEST(ByteBufferTest, ReadPastEndLatchesError) {
  ByteBuffer buf;
  buf.put_u16(7);
  ByteReader in(buf.bytes());
  (void)in.u32();  // 4 > 2 remaining
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.status().ok());
  // Latched: everything after the first failure reads as zero.
  EXPECT_EQ(in.u8(), 0);
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_EQ(in.string_field(), "");
}

TEST(ByteBufferTest, OversizedStringPrefixRejectedBeforeAllocation) {
  ByteBuffer buf;
  buf.put_varint(1ull << 60);  // length prefix far beyond the buffer
  buf.append_raw("xy");
  ByteReader in(buf.bytes());
  EXPECT_EQ(in.string_view_field(), "");
  EXPECT_FALSE(in.ok());
}

TEST(ByteBufferTest, OverlongVarintRejected) {
  // 11 continuation bytes: more than any valid 64-bit LEB128.
  const std::string overlong(11, '\x80');
  ByteReader in(overlong);
  (void)in.varint();
  EXPECT_FALSE(in.ok());
}

TEST(ByteBufferTest, CheckCountRejectsImplausibleCounts) {
  ByteBuffer buf;
  buf.put_varint(1ull << 40);
  ByteReader in(buf.bytes());
  const std::uint64_t count = in.varint();
  EXPECT_FALSE(in.check_count(count, 2));
  EXPECT_FALSE(in.ok());
}

// ---- Frame layer ------------------------------------------------------------

TEST(FrameTest, SealAndOpen) {
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, "payload-bytes");
  auto view = codec::open_frame(frame);
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view.value().tag, codec::FrameTag::kClassAd);
  EXPECT_EQ(view.value().version, codec::kCodecVersion);
  EXPECT_EQ(view.value().payload, "payload-bytes");
}

TEST(FrameTest, TagMismatchRejected) {
  const std::string frame = codec::seal_frame(codec::FrameTag::kClassAd, "x");
  EXPECT_FALSE(codec::open_frame(frame, codec::FrameTag::kMessage).ok());
}

TEST(FrameTest, FutureVersionRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "x");
  frame[3] = static_cast<char>(codec::kCodecVersion + 1);
  EXPECT_FALSE(codec::open_frame(frame).ok());
  frame[3] = 0;
  EXPECT_FALSE(codec::open_frame(frame).ok());
}

TEST(FrameTest, ChecksumMismatchRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "payload");
  frame.back() ^= 0x01;  // corrupt payload, leave header intact
  EXPECT_FALSE(codec::open_frame(frame).ok());
}

TEST(FrameTest, LengthMismatchRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "payload");
  EXPECT_FALSE(codec::open_frame(frame + "extra").ok());
}

// ---- Object round trips -----------------------------------------------------

TEST(CodecTest, MessageRoundTrip) {
  const net::Message original = testing::wire_fixture_message();
  auto decoded = codec::decode_message(codec::encode_message(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_message_eq(original, decoded.value());
}

TEST(CodecTest, FaultMessageRoundTrip) {
  const net::Message request = testing::wire_fixture_message();
  const net::Message fault = net::Message::fault_to(
      request, util::Error(util::ErrorCode::kResourceExhausted,
                           "warehouse budget exhausted"));
  auto decoded = codec::decode_message(codec::encode_message(fault));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(decoded.value().is_fault());
  EXPECT_EQ(decoded.value().fault_error().code(),
            util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(decoded.value().fault_error().message(),
            "warehouse budget exhausted");
}

TEST(CodecTest, DescriptorRoundTrip) {
  const warehouse::GoldenImage original = testing::wire_fixture_descriptor();
  auto decoded = codec::decode_descriptor(codec::encode_descriptor(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_image_eq(original, decoded.value());
}

TEST(CodecTest, DescriptorValidatesSpecLikeXmlParser) {
  warehouse::GoldenImage bad = testing::wire_fixture_descriptor();
  bad.spec.memory_bytes = 0;  // structurally encodable, semantically invalid
  auto decoded = codec::decode_descriptor(codec::encode_descriptor(bad));
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecTest, ClassAdRoundTrip) {
  const classad::ClassAd original = testing::wire_fixture_classad();
  auto decoded = codec::decode_classad(codec::encode_classad(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_classad_eq(original, decoded.value());
}

TEST(CodecTest, BinaryDescriptorSmallerThanXml) {
  const warehouse::GoldenImage image = testing::wire_fixture_descriptor();
  EXPECT_LT(codec::encode_descriptor(image).size(),
            warehouse::render_descriptor(image).size());
}

// ---- Bus wire-format negotiation --------------------------------------------

TEST(BusWireFormatTest, NamesParseAndRender) {
  EXPECT_STREQ(net::wire_format_name(net::WireFormat::kXml), "xml");
  EXPECT_STREQ(net::wire_format_name(net::WireFormat::kBinary), "binary");
  ASSERT_TRUE(net::parse_wire_format("binary").ok());
  EXPECT_EQ(net::parse_wire_format("binary").value(),
            net::WireFormat::kBinary);
  EXPECT_FALSE(net::parse_wire_format("protobuf").ok());
}

void exercise_bus(net::WireFormat wire) {
  net::MessageBus bus{net::BusConfig{wire}};
  EXPECT_EQ(bus.wire_format(), wire);
  ASSERT_TRUE(bus.register_endpoint("echo", [](const net::Message& m) {
                   net::Message response = net::Message::response_to(m);
                   auto& result = response.body().add_child("result");
                   result.set_attr("seen", m.service());
                   result.set_text(m.body().child_text("note"));
                   return response;
                 }).ok());

  net::Message request =
      net::Message::request("echo.ping", "client", "echo", "c1");
  request.body().add_child("note").set_text("payload survives the wire");
  auto response = bus.call(request);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().kind(), net::MessageKind::kResponse);
  EXPECT_EQ(response.value().correlation(), "c1");
  const xml::Element* result = response.value().body().child("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->attr("seen"), "echo.ping");
  EXPECT_EQ(result->text(), "payload survives the wire");

  // Fault responses survive the wire too.
  ASSERT_TRUE(bus.register_endpoint("faulty", [](const net::Message& m) {
                   return net::Message::fault_to(
                       m, util::Error(util::ErrorCode::kNotFound, "no vm"));
                 }).ok());
  auto fault = bus.call(
      net::Message::request("vm.destroy", "client", "faulty", "c2"));
  ASSERT_TRUE(fault.ok()) << fault.error().to_string();
  EXPECT_TRUE(fault.value().is_fault());
  EXPECT_EQ(fault.value().fault_error().code(), util::ErrorCode::kNotFound);
}

TEST(BusWireFormatTest, XmlBusRoundTrips) {
  exercise_bus(net::WireFormat::kXml);
}

TEST(BusWireFormatTest, BinaryBusRoundTrips) {
  exercise_bus(net::WireFormat::kBinary);
}

TEST(BusWireFormatTest, BinaryBusDeploymentCreates) {
  cluster::DeploymentConfig dc;
  dc.plant_count = 1;
  dc.wire_format = net::WireFormat::kBinary;
  cluster::SimulatedDeployment site(dc);
  ASSERT_EQ(site.bus().wire_format(), net::WireFormat::kBinary);
  ASSERT_TRUE(workload::publish_paper_goldens(&site.warehouse(), {32}).ok());

  // Creations through the REAL stack (shop -> bid -> plant -> PPP ->
  // production line) with every hop on the binary wire.
  const auto samples = site.run_sequence(
      workload::workspace_requests(32, 2, "codec.test"), true);
  EXPECT_EQ(samples.size(), 2u);
  EXPECT_EQ(site.creations(), 2u);
  EXPECT_EQ(site.failures(), 0u);
}

// ---- Committed golden fixtures (the wire-compat contract) -------------------

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(VMP_WIRE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with wire_fixture_gen)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(WireCompatTest, DecodesCommittedMessageFixture) {
  const std::string frame = read_fixture("v1-message.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_message(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_message_eq(testing::wire_fixture_message(), decoded.value());
}

TEST(WireCompatTest, DecodesCommittedDescriptorFixture) {
  const std::string frame = read_fixture("v1-descriptor.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_descriptor(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_image_eq(testing::wire_fixture_descriptor(), decoded.value());
}

TEST(WireCompatTest, DecodesCommittedClassAdFixture) {
  const std::string frame = read_fixture("v1-classad.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_classad(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_classad_eq(testing::wire_fixture_classad(), decoded.value());
}

TEST(WireCompatTest, CurrentEncoderMatchesCurrentVersionFixturesByteForByte) {
  // Any encoding change must come with a kCodecVersion bump and fresh
  // fixtures for the NEW version; silently re-encoding the current version
  // differently would orphan persisted frames.
  ASSERT_EQ(codec::kCodecVersion, 1) << "codec version bumped: commit new "
                                        "v2-*.bin fixtures and extend this "
                                        "test instead of editing v1's";
  EXPECT_EQ(read_fixture("v1-message.bin"),
            codec::encode_message(testing::wire_fixture_message()));
  EXPECT_EQ(read_fixture("v1-descriptor.bin"),
            codec::encode_descriptor(testing::wire_fixture_descriptor()));
  EXPECT_EQ(read_fixture("v1-classad.bin"),
            codec::encode_classad(testing::wire_fixture_classad()));
}

TEST(WireCompatTest, XmlRendererMatchesCommittedGoldensByteForByte) {
  // The paper's wire protocol is XML (§4.1); the goldens pin the exact
  // bytes a freshly built message and descriptor render to.
  EXPECT_EQ(read_fixture("message.xml"),
            testing::wire_fixture_message().serialize());
  EXPECT_EQ(read_fixture("descriptor.xml"),
            warehouse::render_descriptor(testing::wire_fixture_descriptor()));
}

// ---- XML re-rendering is a fixed point ----------------------------------------

std::string rerender(const std::string& text) {
  auto parsed = xml::parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error().to_string();
  return parsed.ok() ? parsed.value()->to_string() : std::string();
}

TEST(XmlFixedPointTest, CreateRequestClassAdAndDescriptorRerenderIdentically) {
  const std::string request =
      workload::workspace_request(64, 3, "ufl.edu").to_xml_string();
  EXPECT_EQ(rerender(request), request);

  xml::Element ad_parent("wrapper");
  testing::wire_fixture_classad().to_xml(&ad_parent);
  const std::string ad = ad_parent.children().front().to_string();
  EXPECT_EQ(rerender(ad), ad);

  const std::string descriptor =
      warehouse::render_descriptor(testing::wire_fixture_descriptor());
  EXPECT_EQ(rerender(descriptor), descriptor);
}

TEST(XmlFixedPointTest, MessageForwardedTwiceKeepsItsBytes) {
  // Forward the way a ShardBroker does: decode, copy the body into a fresh
  // envelope, encode again.  Each hop must reproduce the original bytes.
  net::Message original = net::Message::assemble(
      net::MessageKind::kRequest, "vmplant.create", "shop0", "broker0", "r-1");
  workload::workspace_request(64, 3, "ufl.edu").to_xml(&original.body());
  const std::string wire = original.serialize();
  std::string hop_wire = wire;
  for (int hop = 0; hop < 2; ++hop) {
    auto received = net::Message::deserialize(hop_wire);
    ASSERT_TRUE(received.ok()) << received.error().to_string();
    net::Message forward = received.value().clone_shallow_header();
    for (const xml::Element& child : received.value().body().children()) {
      forward.body().adopt_child(child.clone());
    }
    hop_wire = forward.serialize();
    EXPECT_EQ(hop_wire, wire) << "after hop " << hop + 1;
  }
}

// ---- Message bodies survive both wire formats unchanged -----------------------

TEST(MessageBodyTest, DeserializedBodyCarriesNoEnvelopeAttributes) {
  const net::Message sent = testing::wire_fixture_message();
  for (const bool binary : {false, true}) {
    auto received = binary ? codec::decode_message(codec::encode_message(sent))
                           : net::Message::deserialize(sent.serialize());
    ASSERT_TRUE(received.ok()) << received.error().to_string();
    const xml::Element& body = received.value().body();
    EXPECT_TRUE(body.attrs().empty()) << (binary ? "binary" : "xml");
    EXPECT_TRUE(body.deep_equal(sent.body())) << (binary ? "binary" : "xml");
  }
}

TEST(MessageBodyTest, BinaryDuplicateAttributeKeyIsLastWins) {
  // The encoder never writes a duplicate key, but a frame from elsewhere
  // may; the decoder keeps the last value, as it always has.
  ByteBuffer payload;
  payload.put_u8(static_cast<std::uint8_t>(net::MessageKind::kRequest));
  for (const char* field : {"svc", "a", "b", "c", ""}) payload.put_string(field);
  payload.put_varint(0);        // span id
  payload.put_string("message");
  payload.put_varint(0);        // body attributes
  payload.put_string("");       // body text
  payload.put_varint(1);        // one child
  payload.put_string("m");
  payload.put_varint(3);
  payload.put_string("k");
  payload.put_string("first");
  payload.put_string("a");
  payload.put_string("other");
  payload.put_string("k");
  payload.put_string("last");
  payload.put_string("");
  payload.put_varint(0);
  auto decoded = codec::decode_message(
      codec::seal_frame(codec::FrameTag::kMessage, payload.take()));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const xml::Element* m = decoded.value().body().child("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->attrs().size(), 2u);
  EXPECT_EQ(m->attr("k"), "last");
  EXPECT_EQ(m->to_compact_string(), "<m a=\"other\" k=\"last\"/>");
}

TEST(CodecTest, GuestEntriesOutOfOrderOrRepeatedDecodeAsSetsAndMaps) {
  // The encoder writes each guest collection sorted and unique, but a frame
  // from elsewhere may not.  Such a frame decodes as inserts into a
  // std::set / std::map would: sorted, the first of a repeated key kept.
  const std::vector<std::string> packages = {"perl", "gcc", "perl", "condor"};
  const std::vector<std::pair<std::string, std::string>> users = {
      {"vmplant", "/home/vmplant"}, {"griduser", "/first"},
      {"griduser", "/second"}};
  const std::vector<std::pair<std::string, std::string>> mounts = {
      {"/mnt/b", "nfs:/b"}, {"/mnt/a", "nfs:/a"}, {"/mnt/b", "nfs:/late"}};
  const std::vector<std::string> services = {"sshd", "condor_startd", "sshd"};
  const std::vector<std::pair<std::string, std::string>> files = {
      {"/etc/z", "z"}, {"/etc/a", "first"}, {"/etc/a", "second"}};

  ByteBuffer payload;
  for (const char* field : {"golden-x", "vmware-gsx", "warehouse/golden-x",
                            "linux"}) {
    payload.put_string(field);
  }
  payload.put_varint(64ull << 20);  // memory bytes
  payload.put_bool(true);           // suspended
  payload.put_string("disk0");
  payload.put_varint(2048ull << 20);  // capacity
  payload.put_varint(16);             // spans
  payload.put_u8(static_cast<std::uint8_t>(storage::DiskMode::kNonPersistent));
  for (const char* field : {"linux", "host", "10.0.0.9", "02:00:0a:00:00:09"}) {
    payload.put_string(field);
  }
  const auto put_list = [&](const std::vector<std::string>& items) {
    payload.put_varint(items.size());
    for (const std::string& item : items) payload.put_string(item);
  };
  const auto put_pairs =
      [&](const std::vector<std::pair<std::string, std::string>>& items) {
        payload.put_varint(items.size());
        for (const auto& [key, value] : items) {
          payload.put_string(key);
          payload.put_string(value);
        }
      };
  put_list(packages);
  put_pairs(users);
  put_pairs(mounts);
  put_list(services);
  put_pairs(files);
  payload.put_varint(0);  // performed actions

  auto decoded = codec::decode_descriptor(
      codec::seal_frame(codec::FrameTag::kDescriptor, payload.take()));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const hv::GuestState& guest = decoded.value().guest;

  const auto as_set = [](const std::vector<std::string>& items) {
    std::set<std::string> out;
    for (const std::string& item : items) out.emplace_hint(out.end(), item);
    return std::vector<std::string>(out.begin(), out.end());
  };
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  const auto as_map = [](const Pairs& items) {
    std::map<std::string, std::string> out;
    for (const auto& [key, value] : items) {
      out.emplace_hint(out.end(), key, value);
    }
    return Pairs(out.begin(), out.end());
  };
  EXPECT_EQ(std::vector<std::string>(guest.packages.begin(),
                                     guest.packages.end()),
            as_set(packages));
  EXPECT_EQ(Pairs(guest.users.begin(), guest.users.end()), as_map(users));
  EXPECT_EQ(Pairs(guest.mounts.begin(), guest.mounts.end()), as_map(mounts));
  EXPECT_EQ(std::vector<std::string>(guest.running_services.begin(),
                                     guest.running_services.end()),
            as_set(services));
  EXPECT_EQ(Pairs(guest.files.begin(), guest.files.end()), as_map(files));
  EXPECT_EQ(guest.users.at("griduser"), "/first");
  EXPECT_EQ(guest.files.at("/etc/a"), "first");

  // Re-encoding writes the collections sorted and unique, so a second
  // round trip is a fixed point.
  const std::string reencoded = codec::encode_descriptor(decoded.value());
  auto again = codec::decode_descriptor(reencoded);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().guest == guest);
  EXPECT_EQ(codec::encode_descriptor(again.value()), reencoded);
}

// ---- Render-once fan-out ------------------------------------------------------
//
// A message re-addressed and sent again shares its encoded body between
// sends; every send's bytes must still be exactly those of a fresh encode.

/// The wire bytes of one send, as the bus encodes them.
std::string encode_on(net::WireFormat wire, const net::Message& message) {
  return wire == net::WireFormat::kBinary ? codec::encode_message(message)
                                          : message.serialize();
}

/// A bid request like the shop's fan-out, built afresh for `to`.
net::Message bid_request(const std::string& to, bool traced) {
  net::Message m = net::Message::assemble(
      net::MessageKind::kRequest, "vmplant.estimate", "shop0", to, "r-7");
  if (traced) {
    obs::TraceContext trace;
    trace.trace_id = "trace-fanout";
    trace.span_id = 42;
    m.set_trace(std::move(trace));
  }
  workload::workspace_request(64, 3, "ufl.edu").to_xml(&m.body());
  return m;
}

constexpr net::WireFormat kWires[] = {net::WireFormat::kXml,
                                      net::WireFormat::kBinary};

TEST(FanOutTest, EachDestinationMatchesAFreshEncode) {
  for (const net::WireFormat wire : kWires) {
    for (const bool traced : {false, true}) {
      net::Message m = bid_request("", traced);
      for (const char* to : {"plant0", "plant1", "a-much-longer-plant-name",
                             "", "plant0"}) {
        m.set_to(to);
        EXPECT_EQ(encode_on(wire, m), encode_on(wire, bid_request(to, traced)))
            << net::wire_format_name(wire) << " to '" << to << "'";
      }
    }
  }
}

TEST(FanOutTest, OnlyTheAddressSizeVariesBetweenEnvelopes) {
  // A fan-out encodes once and sizes every other envelope from it.
  const std::string long_name(200, 'n');  // a two-byte binary length
  for (const net::WireFormat wire : kWires) {
    const auto address_size = [wire](std::string_view to) {
      return wire == net::WireFormat::kBinary
                 ? codec::encoded_address_size(to)
                 : net::Message::serialized_address_size(to);
    };
    for (const bool traced : {false, true}) {
      const net::Message m = bid_request("", traced);
      const std::size_t rest =
          encode_on(wire, bid_request("plant0", traced)).size() -
          address_size("plant0");
      for (const std::string& to :
           {std::string(), std::string("p"), std::string("a&b<c>\"d'e"),
            long_name}) {
        EXPECT_EQ(encode_on(wire, bid_request(to, traced)).size(),
                  rest + address_size(to))
            << net::wire_format_name(wire) << " to '" << to << "'";
        EXPECT_EQ(wire == net::WireFormat::kBinary
                      ? codec::encode_message(m, to).size()
                      : m.serialize(to).size(),
                  rest + address_size(to));
      }
    }
  }
}

TEST(FanOutTest, ReaddressedMessagesShareTheBodyUntilAnEdit) {
  net::Message m = bid_request("plant0", true);
  const std::string body = m.body().to_compact_string();
  m.share_body();
  const net::Message& shared = m;
  net::Message leg = shared.readdressed("plant1");
  const net::Message& leg_view = leg;
  EXPECT_EQ(&leg_view.body(), &shared.body());
  EXPECT_EQ(leg.to(), "plant1");
  EXPECT_EQ(leg.service(), m.service());
  EXPECT_EQ(leg.trace().trace_id, "trace-fanout");
  EXPECT_EQ(encode_on(net::WireFormat::kXml, leg),
            encode_on(net::WireFormat::kXml, bid_request("plant1", true)));

  // An edit copies first, on either side, and the other keeps the body.
  leg.body().add_child("extra");
  EXPECT_NE(&leg_view.body(), &shared.body());
  EXPECT_EQ(shared.body().to_compact_string(), body);
  net::Message other = shared.readdressed("plant2");
  m.body().add_child("mine");
  EXPECT_EQ(static_cast<const net::Message&>(other).body().to_compact_string(),
            body);
  EXPECT_NE(m.body().to_compact_string(), body);
}

TEST(FanOutTest, EveryErrorCodeSurvivesTheWire) {
  std::uint32_t codes = 0;
  for (std::uint32_t c = 0;
       std::string_view(util::error_code_name(static_cast<util::ErrorCode>(
           c))) != "UNKNOWN";
       ++c, ++codes) {
    const auto code = static_cast<util::ErrorCode>(c);
    const net::Message fault = net::Message::fault_to(
        bid_request("plant0", false), util::Error(code, "why <not>"));
    for (const net::WireFormat wire : kWires) {
      const std::string bytes = encode_on(wire, fault);
      auto decoded = wire == net::WireFormat::kBinary
                         ? codec::decode_message(bytes)
                         : net::Message::deserialize(bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
      const util::Error error = decoded.value().fault_error();
      EXPECT_EQ(error.code(), code)
          << net::wire_format_name(wire) << " " << util::error_code_name(code);
      EXPECT_EQ(error.message(), "why <not>");
    }
  }
  EXPECT_GE(codes, 15u);
}

TEST(FanOutTest, BodyEditBetweenSendsIsCarried) {
  for (const net::WireFormat wire : kWires) {
    const char* name = net::wire_format_name(wire);
    net::Message m = bid_request("plant0", false);
    net::Message expected = bid_request("plant0", false);
    (void)encode_on(wire, m);
    ASSERT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;

    m.body().add_child("extra").set_text("added after two sends");
    expected.body().add_child("extra").set_text("added after two sends");
    m.set_to("plant1");
    expected.set_to("plant1");
    EXPECT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;
    EXPECT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;

    m.body().child("create-request")->set_attr("domain", "nwu.edu");
    expected.body().child("create-request")->set_attr("domain", "nwu.edu");
    EXPECT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;
    EXPECT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;

    // An emptied body encodes as a childless envelope on every send.
    (void)m.body().release_children();
    (void)expected.body().release_children();
    for (int send = 0; send < 3; ++send) {
      EXPECT_EQ(encode_on(wire, m), encode_on(wire, expected)) << name;
    }
  }
}

TEST(FanOutTest, RepeatSendsMatchCommittedGoldens) {
  net::Message m = testing::wire_fixture_message();
  const std::string xml = read_fixture("message.xml");
  const std::string binary = read_fixture("v1-message.bin");
  for (int send = 0; send < 3; ++send) {
    EXPECT_EQ(m.serialize(), xml) << "send " << send;
    EXPECT_EQ(codec::encode_message(m), binary) << "send " << send;
  }
  // Sent elsewhere and back: the golden bytes again.
  m.set_to("plant9");
  EXPECT_NE(m.serialize(), xml);
  EXPECT_NE(codec::encode_message(m), binary);
  m.set_to("plant3");
  EXPECT_EQ(m.serialize(), xml);
  EXPECT_EQ(codec::encode_message(m), binary);
}

TEST(FanOutTest, BusCarriesBodyEditsOnBothWires) {
  for (const net::WireFormat wire : kWires) {
    net::MessageBus bus{net::BusConfig{wire}};
    std::vector<std::string> seen;
    for (const char* address : {"p0", "p1", "p2"}) {
      ASSERT_TRUE(bus.register_endpoint(address, [&seen](const net::Message& m) {
                       seen.push_back(m.to() + " " +
                                      m.body().child("note")->attr("v"));
                       return net::Message::response_to(m);
                     }).ok());
    }
    net::Message m = net::Message::request("svc", "client", "", "c");
    m.body().add_child("note").set_attr("v", "1");
    for (const char* to : {"p0", "p1"}) {
      m.set_to(to);
      ASSERT_TRUE(bus.call(m).ok());
    }
    m.body().child("note")->set_attr("v", "2");
    m.set_to("p2");
    ASSERT_TRUE(bus.call(m).ok());
    m.set_to("p0");
    ASSERT_TRUE(bus.call(m).ok());
    EXPECT_EQ(seen, (std::vector<std::string>{"p0 1", "p1 1", "p2 2", "p0 2"}))
        << net::wire_format_name(wire);
  }
}

TEST(FanOutTest, ConcurrentSendsOfOneMessageAgree) {
  // Sends of one const message from several threads race to publish the
  // shared body; every thread must still see exact bytes.
  const net::Message m = bid_request("plant0", true);
  const std::string xml = bid_request("plant0", true).serialize();
  const std::string binary =
      codec::encode_message(bid_request("plant0", true));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (m.serialize() != xml) ++mismatches;
        if (codec::encode_message(m) != binary) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- Robustness sweeps ------------------------------------------------------

/// Decode `frame` as `tag` says and encode the value again; nullopt when
/// the decoder refuses the frame.
std::optional<std::string> decode_and_reencode(codec::FrameTag tag,
                                               const std::string& frame) {
  switch (tag) {
    case codec::FrameTag::kMessage: {
      auto decoded = codec::decode_message(frame);
      if (!decoded.ok()) return std::nullopt;
      return codec::encode_message(decoded.value());
    }
    case codec::FrameTag::kDescriptor: {
      auto decoded = codec::decode_descriptor(frame);
      if (!decoded.ok()) return std::nullopt;
      return codec::encode_descriptor(decoded.value());
    }
    case codec::FrameTag::kClassAd: {
      auto decoded = codec::decode_classad(frame);
      if (!decoded.ok()) return std::nullopt;
      return codec::encode_classad(decoded.value());
    }
  }
  return std::nullopt;
}

TEST(RobustnessTest, TruncationAtEveryOffsetFailsCleanly) {
  const struct {
    codec::FrameTag tag;
    std::string frame;
  } cases[] = {
      {codec::FrameTag::kMessage,
       codec::encode_message(testing::wire_fixture_message())},
      {codec::FrameTag::kDescriptor,
       codec::encode_descriptor(testing::wire_fixture_descriptor())},
      {codec::FrameTag::kClassAd,
       codec::encode_classad(testing::wire_fixture_classad())},
  };
  for (const auto& c : cases) {
    for (std::size_t len = 0; len < c.frame.size(); ++len) {
      EXPECT_FALSE(decode_and_reencode(c.tag, c.frame.substr(0, len)))
          << codec::frame_tag_name(c.tag) << " truncated to " << len
          << " bytes was accepted";
    }
  }
}

TEST(RobustnessTest, SingleBitFlipsAtEveryPositionFailCleanly) {
  const struct {
    codec::FrameTag tag;
    std::string frame;
  } cases[] = {
      {codec::FrameTag::kMessage,
       codec::encode_message(testing::wire_fixture_message())},
      {codec::FrameTag::kDescriptor,
       codec::encode_descriptor(testing::wire_fixture_descriptor())},
      {codec::FrameTag::kClassAd,
       codec::encode_classad(testing::wire_fixture_classad())},
  };
  for (const auto& c : cases) {
    for (std::size_t byte = 0; byte < c.frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = c.frame;
        flipped[byte] ^= static_cast<char>(1 << bit);
        EXPECT_FALSE(decode_and_reencode(c.tag, flipped))
            << codec::frame_tag_name(c.tag) << " with bit " << bit
            << " of byte " << byte << " flipped was accepted";
      }
    }
  }
}

TEST(RobustnessTest, OversizedLengthPrefixInsidePayloadFailsCleanly) {
  // A well-formed frame whose payload claims a giant string: the length
  // prefix must be rejected against remaining bytes, not allocated.
  ByteBuffer payload;
  payload.put_varint(1);             // one classad attribute...
  payload.put_varint(1ull << 62);    // ...whose name claims 2^62 bytes
  payload.append_raw("x");
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, payload.take());
  EXPECT_FALSE(codec::decode_classad(frame).ok());
}

TEST(RobustnessTest, HugeElementCountsFailCleanly) {
  ByteBuffer payload;
  payload.put_varint(1ull << 40);  // implausible attribute count
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, payload.take());
  EXPECT_FALSE(codec::decode_classad(frame).ok());
}

TEST(RobustnessTest, MutatedPayloadsResealedDecodeCleanly) {
  // The frame checksum stops every raw bit flip before the payload
  // decoders run; re-sealing the mutated payload gets past it, so each
  // decoder sees corrupt payload bytes.  A decode must refuse the frame or
  // yield a value whose encoding is a fixed point of decode + encode.
  const struct {
    codec::FrameTag tag;
    const char* fixture;
  } cases[] = {
      {codec::FrameTag::kMessage, "v1-message.bin"},
      {codec::FrameTag::kDescriptor, "v1-descriptor.bin"},
      {codec::FrameTag::kClassAd, "v1-classad.bin"},
  };
  util::SplitMix64 rng(0xC0DEC);
  for (const auto& c : cases) {
    const std::string frame = read_fixture(c.fixture);
    auto opened = codec::open_frame(frame, c.tag);
    ASSERT_TRUE(opened.ok()) << c.fixture;
    const std::string payload(opened.value().payload);
    std::size_t accepted = 0;
    for (int i = 0; i < 5000; ++i) {
      std::string mutated = payload;
      const std::size_t mutations = 1 + rng.next_below(4);
      for (std::size_t m = 0; m < mutations && !mutated.empty(); ++m) {
        const std::size_t pos = rng.next_below(mutated.size());
        const std::uint64_t kind = rng.next_below(3);
        if (kind == 0) {
          mutated[pos] ^= static_cast<char>(1 << rng.next_below(8));
        } else if (kind == 1) {
          mutated.erase(pos, 1);
        } else {
          mutated.insert(pos, 1, static_cast<char>(rng.next_below(256)));
        }
      }
      const std::optional<std::string> once =
          decode_and_reencode(c.tag, codec::seal_frame(c.tag, mutated));
      if (!once.has_value()) continue;
      ++accepted;
      const std::optional<std::string> twice =
          decode_and_reencode(c.tag, *once);
      ASSERT_TRUE(twice.has_value())
          << c.fixture << " mutation " << i << ": re-encoding does not decode";
      EXPECT_EQ(*twice, *once)
          << c.fixture << " mutation " << i << ": re-encoding is unstable";
    }
    // Some mutations (a flipped string byte) stay well formed, so the
    // accepted path is exercised too.
    EXPECT_GT(accepted, 0u) << c.fixture;
  }
}

// ---- vmp_inspect snapshot: the CLI over the same decoders ------------------

/// `vmp_inspect snapshot` over `frame` written to a scratch file.
testing::InspectRun inspect_frame(const std::string& frame) {
  const std::string path = ::testing::TempDir() + "vmp-inspect-" +
                           std::to_string(::getpid()) + ".bin";
  std::ofstream(path, std::ios::binary) << frame;
  testing::InspectRun run = testing::run_inspect("snapshot " + path);
  std::filesystem::remove(path);
  return run;
}

TEST(InspectSnapshotCliTest, EveryCommittedFrameDecodes) {
  std::size_t frames = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(VMP_WIRE_FIXTURE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("v1-", 0) != 0 || entry.path().extension() != ".bin") {
      continue;
    }
    ++frames;
    for (const char* flags : {"", " --raw"}) {
      const auto run =
          testing::run_inspect("snapshot " + entry.path().string() + flags);
      EXPECT_EQ(run.exit_code, 0) << name << flags << "\n" << run.output;
      EXPECT_NE(run.output.find("checksum OK"), std::string::npos) << name;
    }
  }
  EXPECT_EQ(frames, 3u);
}

TEST(InspectSnapshotCliTest, RetiredAndUnknownTagsAreRefused) {
  // Tag 4 carried the retired whole-simulation snapshot; v1 frames of it
  // may still be on disk, and no decoder reads them now.
  for (const int tag : {0, 4, 5}) {
    const std::string frame =
        codec::seal_frame(static_cast<codec::FrameTag>(tag), "payload");
    const auto view = codec::open_frame(frame);
    ASSERT_FALSE(view.ok()) << "tag " << tag;
    EXPECT_EQ(view.error().message(),
              "unknown frame tag " + std::to_string(tag));
    if (tag == 4) {
      const auto run = inspect_frame(frame);
      EXPECT_NE(run.exit_code, 0) << run.output;
      EXPECT_NE(run.output.find("unknown frame tag 4"), std::string::npos)
          << run.output;
    }
  }
}

TEST(InspectSnapshotCliTest, FlippedByteFailsTheChecksum) {
  std::string frame = read_fixture("v1-descriptor.bin");
  ASSERT_GT(frame.size(), 12u);
  frame[frame.size() / 2] ^= 0x01;  // a payload byte
  const auto run = inspect_frame(frame);
  EXPECT_NE(run.exit_code, 0);
  EXPECT_NE(run.output.find("checksum mismatch"), std::string::npos)
      << run.output;
}

TEST(InspectSnapshotCliTest, FaultFrameIsLabelledFault) {
  // Kind byte 2 is net::MessageKind::kFault; the decoder refuses byte 3.
  const net::Message fault = net::Message::fault_to(
      testing::wire_fixture_message(),
      util::Error(util::ErrorCode::kResourceExhausted, "budget exhausted"));
  const auto run = inspect_frame(codec::encode_message(fault));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("kind=\"fault\""), std::string::npos)
      << run.output;
}

}  // namespace
}  // namespace vmp
