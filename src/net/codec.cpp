#include "net/codec.h"

#include <algorithm>

namespace vmp::net::codec {

using util::ByteBuffer;
using util::ByteReader;
using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

constexpr char kMagic0 = 'V';
constexpr char kMagic1 = 'W';
constexpr std::size_t kHeaderBytes = 12;
/// Corrupted child counts cannot recurse unboundedly past this.
constexpr int kMaxElementDepth = 64;

Error reader_error(const ByteReader& in, const char* what) {
  return Error(ErrorCode::kParseError,
               std::string(what) + ": " + in.status().error().message());
}

}  // namespace

const char* frame_tag_name(FrameTag tag) noexcept {
  switch (tag) {
    case FrameTag::kMessage: return "message";
    case FrameTag::kDescriptor: return "descriptor";
    case FrameTag::kClassAd: return "classad";
  }
  return "unknown";
}

namespace {

/// Starts a frame whose length and checksum are left zero, so an encoder
/// writes its payload once, straight into the frame.
ByteBuffer begin_frame(FrameTag tag, std::size_t payload_hint) {
  // Length and checksum (bytes 4..11) stay zero until finish_frame.
  const char header[kHeaderBytes] = {kMagic0, kMagic1, static_cast<char>(tag),
                                     static_cast<char>(kCodecVersion)};
  ByteBuffer frame;
  frame.reserve(kHeaderBytes + payload_hint);
  frame.append_raw(std::string_view(header, kHeaderBytes));
  return frame;
}

/// Fills in the length and checksum of the payload behind the header.
std::string finish_frame(ByteBuffer* frame) {
  const std::string_view payload = frame->bytes().substr(kHeaderBytes);
  const auto payload_len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t checksum = util::frame_checksum32(payload);
  frame->patch_u32(4, payload_len);
  frame->patch_u32(8, checksum);
  return frame->take();
}

}  // namespace

std::string seal_frame(FrameTag tag, std::string payload) {
  ByteBuffer frame = begin_frame(tag, payload.size());
  frame.append_raw(payload);
  return finish_frame(&frame);
}

Result<FrameView> open_frame(std::string_view frame) {
  if (frame.size() < kHeaderBytes) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError, "frame shorter than the 12-byte header (" +
                                    std::to_string(frame.size()) + " bytes)"));
  }
  ByteReader header(frame.substr(0, kHeaderBytes));
  const char magic0 = static_cast<char>(header.u8());
  const char magic1 = static_cast<char>(header.u8());
  if (magic0 != kMagic0 || magic1 != kMagic1) {
    return Result<FrameView>(
        Error(ErrorCode::kParseError, "bad frame magic (not a VW frame)"));
  }
  const std::uint8_t tag_byte = header.u8();
  const std::uint8_t version = header.u8();
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t checksum = header.u32();
  if (tag_byte < static_cast<std::uint8_t>(FrameTag::kMessage) ||
      tag_byte > static_cast<std::uint8_t>(FrameTag::kClassAd)) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "unknown frame tag " + std::to_string(tag_byte)));
  }
  if (version == 0 || version > kCodecVersion) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "unsupported codec version " + std::to_string(version) +
            " (this decoder speaks 1.." + std::to_string(kCodecVersion) +
            ")"));
  }
  const std::string_view payload = frame.substr(kHeaderBytes);
  if (payload.size() != payload_len) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "frame length mismatch: header says " + std::to_string(payload_len) +
            " payload bytes, " + std::to_string(payload.size()) + " present"));
  }
  if (util::frame_checksum32(payload) != checksum) {
    return Result<FrameView>(
        Error(ErrorCode::kParseError, "frame checksum mismatch"));
  }
  FrameView view;
  view.tag = static_cast<FrameTag>(tag_byte);
  view.version = version;
  view.payload = payload;
  return view;
}

Result<FrameView> open_frame(std::string_view frame, FrameTag expected) {
  auto view = open_frame(frame);
  if (view.ok() && view.value().tag != expected) {
    view = Error(ErrorCode::kParseError,
                 std::string("expected a ") + frame_tag_name(expected) +
                     " frame, got " + frame_tag_name(view.value().tag));
  }
  return view;
}

// -- XML element trees --------------------------------------------------------

void encode_element(const xml::Element& element, ByteBuffer* out) {
  out->put_string(element.name());
  out->put_varint(element.attrs().size());
  for (const auto& [key, value] : element.attrs()) {
    out->put_string(key);
    out->put_string(value);
  }
  out->put_string(element.text());
  out->put_varint(element.children().size());
  for (const xml::Element& child : element.children()) {
    encode_element(child, out);
  }
}

namespace {

bool decode_content(ByteReader* in, xml::Element* element, int depth,
                    bool keep_attrs);

/// Room to reserve for `count` decoded entries.  A count only claims its
/// entries until they decode, and the claims of nested elements add up, so
/// a list reserves at most 64 up front and grows past that as entries
/// arrive.
std::size_t reserve_for(std::uint64_t count) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(count, 64));
}

/// Reads an element's name, which must be non-empty.
std::string_view decode_name(ByteReader* in, int depth) {
  if (depth > kMaxElementDepth) {
    in->fail("element tree deeper than " + std::to_string(kMaxElementDepth));
    return {};
  }
  const std::string_view name = in->string_view_field();
  if (in->ok() && name.empty()) in->fail("element with empty name");
  return name;
}


/// Decodes the attributes (dropped unless `keep_attrs`), text and children
/// of an element whose name has been read, into `element`.
bool decode_content(ByteReader* in, xml::Element* element, int depth,
                    bool keep_attrs) {
  const std::uint64_t nattrs = in->varint();
  // Each attribute costs at least two length prefixes (2 bytes).
  if (!in->check_count(nattrs, 2)) return false;
  if (keep_attrs) element->reserve_attrs(reserve_for(nattrs));
  for (std::uint64_t i = 0; i < nattrs && in->ok(); ++i) {
    const std::string_view key = in->string_view_field();
    const std::string_view value = in->string_view_field();
    if (!in->ok()) return false;
    if (keep_attrs) element->set_attr(key, std::string(value));
  }
  if (const std::string_view text = in->string_view_field(); !text.empty()) {
    element->set_text(std::string(text));
  }
  const std::uint64_t nchildren = in->varint();
  // A minimal child is name prefix + empty text prefix + counts: 4 bytes.
  if (!in->check_count(nchildren, 4)) return false;
  element->reserve_children(reserve_for(nchildren));
  for (std::uint64_t i = 0; i < nchildren && in->ok(); ++i) {
    const std::string_view name = decode_name(in, depth + 1);
    if (!in->ok()) return false;
    // Built in place, in a list already sized for its siblings.
    xml::Element& child = element->add_child(std::string(name));
    if (!decode_content(in, &child, depth + 1, /*keep_attrs=*/true)) {
      return false;
    }
  }
  return in->ok();
}

}  // namespace

Result<xml::Element> decode_element(ByteReader* in) {
  const std::string_view name = decode_name(in, 0);
  xml::Element element{std::string(name)};
  if (!in->ok() || !decode_content(in, &element, 0, /*keep_attrs=*/true)) {
    return Result<xml::Element>(Error(
        ErrorCode::kParseError,
        "element decode: " + in->status().error().message()));
  }
  return element;
}

// -- Message envelopes --------------------------------------------------------

namespace {

std::string encode_body(const xml::Element& body) {
  ByteBuffer out;
  encode_element(body, &out);
  return out.take();
}

}  // namespace

std::string encode_message(const Message& message) {
  return encode_message(message, message.to());
}

std::string encode_message(const Message& message, std::string_view to) {
  // The body is the payload's tail: a repeat send splices the shared
  // encoded body behind its own envelope, and the checksum still covers
  // the whole payload.
  const std::string* body =
      message.encoded_body(WireFormat::kBinary, encode_body);
  // Room for the envelope (a kind byte, five strings and a varint, each
  // length prefix or varint at most 10 bytes) and the body: exact on a
  // repeat send, a first guess on a first one.
  const std::size_t envelope = 61 + message.service().size() +
                               message.from().size() + to.size() +
                               message.correlation().size() +
                               message.trace().trace_id.size();
  ByteBuffer payload = begin_frame(FrameTag::kMessage,
                                   envelope + (body ? body->size() : 256));
  payload.put_u8(static_cast<std::uint8_t>(message.kind()));
  payload.put_string(message.service());
  payload.put_string(message.from());
  payload.put_string(to);
  payload.put_string(message.correlation());
  payload.put_string(message.trace().trace_id);
  payload.put_varint(message.trace().span_id);
  if (body != nullptr) {
    payload.append_raw(*body);
  } else {
    encode_element(message.body(), &payload);
  }
  return finish_frame(&payload);
}

std::size_t encoded_address_size(std::string_view to) {
  std::size_t length_bytes = 1;  // the LEB128 length prefix
  for (std::size_t n = to.size(); n >= 0x80; n >>= 7) ++length_bytes;
  return length_bytes + to.size();
}

Result<Message> decode_message(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kMessage);
  if (!view.ok()) return view.propagate<Message>();

  ByteReader in(view.value().payload);
  const std::uint8_t kind_byte = in.u8();
  if (in.ok() && kind_byte > static_cast<std::uint8_t>(MessageKind::kFault)) {
    in.fail("message kind byte " + std::to_string(kind_byte) +
            " out of range");
  }
  // The envelope decodes in place in the result, which is returned as is.
  Result<Message> result(std::in_place);
  Message& message = result.value();
  message.kind_ = static_cast<MessageKind>(kind_byte);
  message.service_ = in.string_view_field();
  message.from_ = in.string_view_field();
  message.to_ = in.string_view_field();
  message.correlation_ = in.string_view_field();
  message.trace_.trace_id = in.string_view_field();
  message.trace_.span_id = in.varint();
  if (!in.ok()) {
    return Result<Message>(Error(
        ErrorCode::kParseError,
        "message envelope: " + in.status().error().message()));
  }

  // The body decodes straight into the message; like the XML path, the
  // envelope keeps no attributes of the encoded body root.
  decode_name(&in, 0);
  if (!in.ok() ||
      !decode_content(&in, &message.body(), 0, /*keep_attrs=*/false)) {
    return Result<Message>(Error(
        ErrorCode::kParseError,
        "element decode: " + in.status().error().message()));
  }
  if (!in.done()) {
    return Result<Message>(Error(
        ErrorCode::kParseError,
        std::to_string(in.remaining()) + " trailing bytes after message body"));
  }
  return result;
}

// -- Warehouse descriptors ----------------------------------------------------

namespace {

/// `n` strings.
util::FlatSet<std::string> decode_set(ByteReader* in, std::uint64_t n) {
  std::vector<std::string> items;
  items.reserve(reserve_for(n));
  for (std::uint64_t i = 0; i < n && in->ok(); ++i) {
    items.emplace_back(in->string_view_field());
  }
  return util::FlatSet<std::string>::from_unsorted(std::move(items));
}

/// `n` (key, value) string pairs.
util::FlatMap<std::string, std::string> decode_map(ByteReader* in,
                                                   std::uint64_t n) {
  std::vector<std::pair<std::string, std::string>> items;
  items.reserve(reserve_for(n));
  for (std::uint64_t i = 0; i < n && in->ok(); ++i) {
    const std::string_view key = in->string_view_field();
    const std::string_view value = in->string_view_field();
    items.emplace_back(key, value);
  }
  return util::FlatMap<std::string, std::string>::from_unsorted(
      std::move(items));
}

util::Status decode_descriptor_fields(ByteReader* in,
                                      warehouse::GoldenImage* out) {
  warehouse::GoldenImage& image = *out;
  image.id = in->string_view_field();
  image.backend = in->string_view_field();
  image.layout.dir = in->string_view_field();
  if (!in->ok()) return reader_error(*in, "descriptor header");
  if (image.id.empty()) {
    return Error(ErrorCode::kParseError, "descriptor: missing id");
  }

  image.spec.os = in->string_view_field();
  image.spec.memory_bytes = in->varint();
  image.spec.suspended = in->boolean();
  image.spec.disk.name = in->string_view_field();
  image.spec.disk.capacity_bytes = in->varint();
  const std::uint64_t span_count = in->varint();
  const std::uint8_t mode_byte = in->u8();
  if (in->ok() && span_count > 0xffffffffull) {
    in->fail("disk span count overflows u32");
  }
  if (in->ok() &&
      mode_byte > static_cast<std::uint8_t>(storage::DiskMode::kNonPersistent)) {
    in->fail("disk mode byte " + std::to_string(mode_byte) + " out of range");
  }
  if (!in->ok()) return reader_error(*in, "descriptor machine spec");
  image.spec.disk.span_count = static_cast<std::uint32_t>(span_count);
  image.spec.disk.mode = static_cast<storage::DiskMode>(mode_byte);

  hv::GuestState& guest = image.guest;
  guest.os = in->string_view_field();
  guest.hostname = in->string_view_field();
  guest.ip = in->string_view_field();
  guest.mac = in->string_view_field();
  // The encoder walked sorted containers, so entries usually arrive in
  // order and each container is built in one pass.  A frame with entries
  // out of order or repeated still decodes as inserts into a std::set /
  // std::map would: sorted, the first of a repeated key kept.
  const std::uint64_t npackages = in->varint();
  if (!in->check_count(npackages)) return reader_error(*in, "guest packages");
  guest.packages = decode_set(in, npackages);
  const std::uint64_t nusers = in->varint();
  if (!in->check_count(nusers, 2)) return reader_error(*in, "guest users");
  guest.users = decode_map(in, nusers);
  const std::uint64_t nmounts = in->varint();
  if (!in->check_count(nmounts, 2)) return reader_error(*in, "guest mounts");
  guest.mounts = decode_map(in, nmounts);
  const std::uint64_t nservices = in->varint();
  if (!in->check_count(nservices)) return reader_error(*in, "guest services");
  guest.running_services = decode_set(in, nservices);
  const std::uint64_t nfiles = in->varint();
  if (!in->check_count(nfiles, 2)) return reader_error(*in, "guest files");
  guest.files = decode_map(in, nfiles);

  const std::uint64_t nperformed = in->varint();
  if (!in->check_count(nperformed)) {
    return reader_error(*in, "performed actions");
  }
  image.performed.reserve(static_cast<std::size_t>(nperformed));
  for (std::uint64_t i = 0; i < nperformed && in->ok(); ++i) {
    image.performed.emplace_back(in->string_view_field());
  }
  if (!in->ok()) return reader_error(*in, "descriptor");
  // Same gate as the XML parse_descriptor: a structurally well-formed frame
  // may still carry an unusable machine spec.
  return image.spec.validate();
}

}  // namespace

std::string encode_descriptor(const warehouse::GoldenImage& image) {
  ByteBuffer out = begin_frame(FrameTag::kDescriptor, 512);
  out.put_string(image.id);
  out.put_string(image.backend);
  out.put_string(image.layout.dir);

  out.put_string(image.spec.os);
  out.put_varint(image.spec.memory_bytes);
  out.put_bool(image.spec.suspended);
  out.put_string(image.spec.disk.name);
  out.put_varint(image.spec.disk.capacity_bytes);
  out.put_varint(image.spec.disk.span_count);
  out.put_u8(static_cast<std::uint8_t>(image.spec.disk.mode));

  const hv::GuestState& guest = image.guest;
  out.put_string(guest.os);
  out.put_string(guest.hostname);
  out.put_string(guest.ip);
  out.put_string(guest.mac);
  out.put_varint(guest.packages.size());
  for (const auto& package : guest.packages) out.put_string(package);
  out.put_varint(guest.users.size());
  for (const auto& [name, home] : guest.users) {
    out.put_string(name);
    out.put_string(home);
  }
  out.put_varint(guest.mounts.size());
  for (const auto& [mountpoint, source] : guest.mounts) {
    out.put_string(mountpoint);
    out.put_string(source);
  }
  out.put_varint(guest.running_services.size());
  for (const auto& service : guest.running_services) out.put_string(service);
  out.put_varint(guest.files.size());
  for (const auto& [path, content] : guest.files) {
    out.put_string(path);
    out.put_string(content);
  }
  // flaky_counters intentionally excluded, matching render_guest_state:
  // they are fault-injection scratch state, not guest configuration.

  out.put_varint(image.performed.size());
  for (const auto& signature : image.performed) out.put_string(signature);
  return finish_frame(&out);
}

Result<warehouse::GoldenImage> decode_descriptor(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kDescriptor);
  if (!view.ok()) return view.propagate<warehouse::GoldenImage>();
  ByteReader in(view.value().payload);
  // Decoded in place and returned by name on every path below: never moved.
  Result<warehouse::GoldenImage> image(std::in_place);
  if (util::Status s = decode_descriptor_fields(&in, &image.value()); !s.ok()) {
    image = s.error();
  } else if (!in.done()) {
    image = Error(ErrorCode::kParseError,
                  std::to_string(in.remaining()) +
                      " trailing bytes after descriptor");
  }
  return image;
}

// -- ClassAd snapshots --------------------------------------------------------

std::string encode_classad(const classad::ClassAd& ad) {
  ByteBuffer out = begin_frame(FrameTag::kClassAd, 128);
  const std::vector<std::string> names = ad.names();
  out.put_varint(names.size());
  for (const std::string& name : names) {
    out.put_string(name);
    const classad::Expr* expr = ad.lookup(name);
    out.put_string(expr != nullptr ? expr->to_string() : "undefined");
  }
  return finish_frame(&out);
}

Result<classad::ClassAd> decode_classad(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kClassAd);
  if (!view.ok()) return view.propagate<classad::ClassAd>();
  ByteReader in(view.value().payload);
  const std::uint64_t nattrs = in.varint();
  if (!in.check_count(nattrs, 2)) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        "classad attr count: " + in.status().error().message()));
  }
  classad::ClassAd ad;
  for (std::uint64_t i = 0; i < nattrs && in.ok(); ++i) {
    std::string name = in.string_field();
    std::string expr_text = in.string_field();
    if (!in.ok()) break;
    if (auto set = ad.set_expression(name, expr_text); !set.ok()) {
      return Result<classad::ClassAd>(Error(
          ErrorCode::kParseError, "classad attr '" + name +
                                      "': " + set.error().message()));
    }
  }
  if (!in.ok()) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        "classad: " + in.status().error().message()));
  }
  if (!in.done()) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        std::to_string(in.remaining()) + " trailing bytes after classad"));
  }
  return ad;
}

}  // namespace vmp::net::codec
