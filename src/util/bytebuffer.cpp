#include "util/bytebuffer.h"

#include <algorithm>
#include <cstring>

namespace vmp::util {

std::uint32_t fnv1a32(std::string_view data) noexcept {
  std::uint32_t hash = 2166136261u;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 16777619u;
  }
  return hash;
}

std::uint64_t fnv1a64(std::string_view data) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint32_t frame_checksum32(std::string_view data) noexcept {
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t lane0 = 2166136261u;
  std::uint32_t lane1 = 0x9747b28cu;
  const char* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint32_t w0;
    std::uint32_t w1;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    lane0 = (lane0 ^ w0) * kPrime;
    lane1 = (lane1 ^ w1) * kPrime;
    p += 8;
    n -= 8;
  }
  // Absorb the trailing 0..7 bytes with the tail length in the top byte of
  // the padded word (a partial word can hold at most 7 data bytes, so the
  // length byte never collides with data).
  std::uint64_t tail = static_cast<std::uint64_t>(n) << 56;
  std::memcpy(&tail, p, n);
  lane0 = (lane0 ^ static_cast<std::uint32_t>(tail)) * kPrime;
  lane1 = (lane1 ^ static_cast<std::uint32_t>(tail >> 32)) * kPrime;
  // Cross-fold so both lanes influence every output bit region.
  std::uint32_t h = lane0 ^ ((lane1 << 16) | (lane1 >> 16));
  h ^= h >> 15;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  return h;
}

void ByteBuffer::expand(std::size_t n) {
  out_.resize(std::max({size_ + n, 2 * out_.size(), std::size_t{64}}));
}

void ByteBuffer::put_u16(std::uint16_t v) {
  char* p = grow(2);
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}

void ByteBuffer::put_u32(std::uint32_t v) {
  char* p = grow(4);
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void ByteBuffer::put_u64(std::uint64_t v) {
  char* p = grow(8);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void ByteBuffer::put_varint_slow(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void ByteBuffer::put_svarint(std::int64_t v) {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void ByteBuffer::patch_u32(std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

const char* ByteReader::take(std::size_t n) {
  if (!ok_) return nullptr;
  if (n > remaining()) {
    fail("read of " + std::to_string(n) + " bytes past end");
    return nullptr;
  }
  const char* p = data_.data() + offset_;
  offset_ += n;
  return p;
}

std::uint8_t ByteReader::u8_slow() {
  const char* p = take(1);
  return p != nullptr ? static_cast<std::uint8_t>(*p) : 0;
}

std::uint16_t ByteReader::u16() {
  const char* p = take(2);
  if (p == nullptr) return 0;
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t ByteReader::u32() {
  const char* p = take(4);
  if (p == nullptr) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  const char* p = take(8);
  if (p == nullptr) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (ok_ && v > 1) fail("boolean byte out of range");
  return v == 1;
}

std::uint64_t ByteReader::varint_slow() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const char* p = take(1);
    if (p == nullptr) return 0;
    const auto byte = static_cast<unsigned char>(*p);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th group may only carry the top bit of a 64-bit value.
      if (shift == 63 && (byte & 0x7e) != 0) {
        fail("varint overflows 64 bits");
        return 0;
      }
      return v;
    }
  }
  fail("varint longer than 10 bytes");
  return 0;
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t u = varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string_view ByteReader::view(std::size_t n) {
  const char* p = take(n);
  return p != nullptr ? std::string_view(p, n) : std::string_view();
}

std::string_view ByteReader::string_overrun(std::uint64_t n) {
  if (!ok_) return {};
  fail("string length " + std::to_string(n) + " exceeds remaining " +
       std::to_string(remaining()) + " bytes");
  return {};
}

bool ByteReader::count_overrun(std::uint64_t count) {
  if (!ok_) return false;
  fail("element count " + std::to_string(count) +
       " implausible for remaining " + std::to_string(remaining()) + " bytes");
  return false;
}

void ByteReader::fail(const std::string& why) {
  if (!ok_) return;  // keep the FIRST failure; later reads are noise
  ok_ = false;
  fail_reason_ = why;
  fail_offset_ = offset_;
}

Status ByteReader::status() const {
  if (ok_) return Status();
  return Status(ErrorCode::kParseError,
                "byte " + std::to_string(fail_offset_) + ": " + fail_reason_);
}

}  // namespace vmp::util
