// Compact binary encoding primitives: ByteBuffer (writer) and ByteReader.
//
// The paper's §4.1 wire format is XML text — kept as the debug/interchange
// encoding — but at fleet scale every bus hop and descriptor round-trip
// pays the DOM build + escape/parse tax.  This module is the foundation of
// the binary codec (net/codec.h, DESIGN.md §15): little-endian fixed-width
// integers, LEB128 varints, zigzag signed varints, and length-prefixed
// strings, plus the FNV-1a checksums the frame layer uses
// (the same discipline as the event journal's segment codec, obs/journal.cpp).
//
// ByteReader BORROWS the input (std::string_view) and never copies a byte
// it does not hand out: view() returns sub-views of the original buffer, so
// an in-process decode is zero-copy until a field is materialized into an
// owning object.  Every read is bounds-checked; a failed read latches an
// error state (ok() goes false, fail_error() says why) and all subsequent
// reads return zero values, so decoders can check once per structural
// boundary instead of per field.  Length prefixes are validated against the
// bytes actually remaining BEFORE any allocation — an adversarial or
// corrupted prefix can never trigger an oversized reserve.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/error.h"

namespace vmp::util {

/// FNV-1a over a byte range; journal segment checksums (32-bit) and content
/// digests (64-bit).
std::uint32_t fnv1a32(std::string_view data) noexcept;
std::uint64_t fnv1a64(std::string_view data) noexcept;

/// Frame-layer checksum for the binary codec (net/codec.h): two interleaved
/// 32-bit FNV-1a lanes over alternating little-endian words, folded at the
/// end.  Word-at-a-time is ~8x faster than byte-serial FNV (the multiply
/// dependency chain advances 8 bytes per step instead of 1), which matters
/// because the checksum is paid on BOTH sides of every bus hop.  Each lane
/// stays bijective per absorbed block (xor + odd multiply), so any
/// corruption confined to one 32-bit word — in particular every single-bit
/// flip — is guaranteed to change the checksum; the trailing partial word
/// absorbs its length so truncated tails cannot alias padded ones.
std::uint32_t frame_checksum32(std::string_view data) noexcept;

class ByteBuffer {
 public:
  void put_u8(std::uint8_t v) { *grow(1) = static_cast<char>(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// LEB128: 7 bits per byte, low group first, high bit = continuation.
  void put_varint(std::uint64_t v) {
    if (v < 0x80) {
      *grow(1) = static_cast<char>(v);
    } else {
      put_varint_slow(v);
    }
  }
  /// Zigzag-mapped varint for signed values (small magnitudes stay small).
  void put_svarint(std::int64_t v);
  /// Varint byte length, then the raw bytes.
  void put_string(std::string_view v) {
    put_varint(v.size());
    append_raw(v);
  }
  void append_raw(std::string_view v) {
    if (!v.empty()) std::memcpy(grow(v.size()), v.data(), v.size());
  }

  /// Overwrite 4 bytes at `offset` (length back-patching).
  void patch_u32(std::size_t offset, std::uint32_t v);

  /// Pre-size the backing store (encoders that know roughly how big the
  /// payload will be avoid the append-growth reallocations).
  void reserve(std::size_t n) {
    if (n > out_.size()) out_.resize(n);
  }

  std::size_t size() const { return size_; }
  std::string_view bytes() const { return {out_.data(), size_}; }
  std::string take() {
    out_.resize(size_);
    size_ = 0;
    return std::move(out_);
  }
  void clear() { size_ = 0; }

 private:
  /// Claims the next `n` bytes and returns where they start.  Writes go
  /// through a raw pointer: no per-field capacity bookkeeping of
  /// std::string, which dominated encoding small fields.
  char* grow(std::size_t n) {
    if (out_.size() - size_ < n) expand(n);
    char* p = out_.data() + size_;
    size_ += n;
    return p;
  }
  void expand(std::size_t n);
  void put_varint_slow(std::uint64_t v);

  std::string out_;  // [0, size_) written; the rest is spare room
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (ok_ && offset_ < data_.size()) {
      return static_cast<std::uint8_t>(data_[offset_++]);
    }
    return u8_slow();
  }
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  bool boolean();
  std::uint64_t varint() {
    // One-byte varints (every count and most string lengths) inline.
    if (ok_ && offset_ < data_.size() &&
        (static_cast<unsigned char>(data_[offset_]) & 0x80) == 0) {
      return static_cast<unsigned char>(data_[offset_++]);
    }
    return varint_slow();
  }
  std::int64_t svarint();
  /// Borrowed sub-view of the next `n` bytes (no copy).
  std::string_view view(std::size_t n);
  /// Length-prefixed string as a borrowed view; the prefix is rejected
  /// (error latch) when it exceeds the remaining bytes.
  std::string_view string_view_field() {
    const std::uint64_t n = varint();
    if (ok_ && n <= remaining()) {
      const std::string_view v(data_.data() + offset_, n);
      offset_ += n;
      return v;
    }
    return string_overrun(n);
  }
  /// Owning copy of a length-prefixed string.
  std::string string_field() { return std::string(string_view_field()); }

  /// A decoded count is plausible only if the stream still holds at least
  /// `min_bytes_each` bytes per element; reject it up front so corrupted
  /// counts fail fast instead of driving giant loops/allocations.
  bool check_count(std::uint64_t count, std::size_t min_bytes_each = 1) {
    if (ok_ && (min_bytes_each == 0 || count <= remaining() / min_bytes_each)) {
      return true;
    }
    return count_overrun(count);
  }

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return ok_ && offset_ == data_.size(); }

  bool ok() const { return ok_; }
  /// First failure (kParseError with the offset); OK while ok().
  Status status() const;
  /// Latch a decoder-level failure (semantic validation, not bounds).
  void fail(const std::string& why);

 private:
  const char* take(std::size_t n);
  std::uint8_t u8_slow();
  std::uint64_t varint_slow();
  std::string_view string_overrun(std::uint64_t n);
  bool count_overrun(std::uint64_t count);

  std::string_view data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
  std::string fail_reason_;
  std::size_t fail_offset_ = 0;
};

}  // namespace vmp::util
