// Versioned binary wire codec for VMPlants objects (DESIGN.md §15).
//
// The paper's §4.1 wire format is XML text; it stays the debug/interchange
// encoding and the default everywhere (paper runs remain byte-identical).
// This codec is the compact alternative the bus negotiates per instance
// (net::BusConfig::wire_format = kBinary): message envelopes + payloads,
// warehouse golden-image descriptors and classad snapshots.
//
// Frame layout (little-endian), shared by every object kind:
//
//   offset  size  field
//   0       2     magic "VW"            (VMPlants Wire)
//   2       1     tag                   (FrameTag: what the payload encodes)
//   3       1     version               (1..kCodecVersion)
//   4       4     payload length        (must equal exactly the bytes left)
//   8       4     frame_checksum32(payload)  (word-parallel FNV lanes)
//   12      len   payload
//
// Decoding validates magic, tag, version range, exact length, and checksum
// before touching a payload byte; payload strings decode as zero-copy views
// of the frame (util::ByteReader).  Version bumps append fields or add
// tags — decoders accept every version <= kCodecVersion, and the committed
// golden fixtures under tests/fixtures/wire/ pin each released version so
// CI turns red if an encoding change orphans persisted bytes.
#pragma once

#include <string>
#include <string_view>

#include "classad/classad.h"
#include "net/message.h"
#include "util/bytebuffer.h"
#include "util/error.h"
#include "warehouse/warehouse.h"
#include "xml/xml.h"

namespace vmp::net::codec {

/// Current encoder version.  History: 1 = initial binary codec (this PR).
inline constexpr std::uint8_t kCodecVersion = 1;

enum class FrameTag : std::uint8_t {
  kMessage = 1,     // net::Message envelope + XML payload tree
  kDescriptor = 2,  // warehouse::GoldenImage (descriptor + guest state)
  kClassAd = 3,     // classad snapshot (attr name -> expression text)
  // Tag 4 is retired: v1 snapshot frames may exist on disk. Never reuse it.
};

const char* frame_tag_name(FrameTag tag) noexcept;

/// Wrap a payload in the versioned checksummed frame.
std::string seal_frame(FrameTag tag, std::string payload);

struct FrameView {
  FrameTag tag;
  std::uint8_t version = 0;
  std::string_view payload;  // borrowed from the input
};

/// Validate header + checksum and return the borrowed payload.  The input
/// must be exactly one frame (length prefix == remaining bytes).
util::Result<FrameView> open_frame(std::string_view frame);
/// open_frame + tag check in one step.
util::Result<FrameView> open_frame(std::string_view frame, FrameTag expected);

// -- XML element trees (message payload bodies) -------------------------------
void encode_element(const xml::Element& element, util::ByteBuffer* out);
/// Depth-limited recursive decode (corrupted child counts cannot recurse
/// unboundedly; limit 64 nests, far beyond any real payload).
util::Result<xml::Element> decode_element(
    util::ByteReader* in);

// -- Message envelopes --------------------------------------------------------
std::string encode_message(const Message& message);
/// As above, with the envelope addressed to `to` (a fan-out's envelope).
std::string encode_message(const Message& message, std::string_view to);
/// The bytes `to` takes in encode_message(message, to): the rest of the
/// frame does not depend on the address, so one encode sizes every
/// envelope.
std::size_t encoded_address_size(std::string_view to);
util::Result<Message> decode_message(std::string_view frame);

// -- Warehouse descriptors ----------------------------------------------------
std::string encode_descriptor(const warehouse::GoldenImage& image);
util::Result<warehouse::GoldenImage> decode_descriptor(std::string_view frame);

// -- ClassAd snapshots --------------------------------------------------------
std::string encode_classad(const classad::ClassAd& ad);
util::Result<classad::ClassAd> decode_classad(std::string_view frame);

}  // namespace vmp::net::codec
