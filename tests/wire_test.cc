// Wire toolkit tests: CRC-32 and XXH64 known answers, slicing-by-8 against a
// byte-at-a-time reference at every length and alignment, the FNV-1a fold,
// and the little-endian Writer/Reader round trip with its truncation errors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/wire.h"

namespace fluke {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

// The classic one-byte-per-step reflected CRC-32, kept here as the
// reference the slicing-by-8 implementation must equal.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WireCrc32, CheckValue) {
  const std::vector<uint8_t> b = Bytes("123456789");
  EXPECT_EQ(wire::Crc32(b.data(), b.size()), 0xCBF43926u);
  EXPECT_EQ(wire::Crc32(nullptr, 0), 0u);
}

TEST(WireCrc32, SlicingBy8MatchesByteAtATimeAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf(64 + 8);
  uint32_t x = 0x12345678u;
  for (uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(wire::Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(WireXxh64, KnownAnswers) {
  const std::vector<uint8_t> empty;
  const std::vector<uint8_t> abc = Bytes("abc");
  const std::vector<uint8_t> fox = Bytes("The quick brown fox jumps over the lazy dog");
  EXPECT_EQ(wire::Xxh64(empty.data(), empty.size()), 0xef46db3751d8e999ull);
  EXPECT_EQ(wire::Xxh64(abc.data(), abc.size()), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(wire::Xxh64(fox.data(), fox.size()), 0x0b242d361fda71bcull);
}

TEST(WireXxh64, EveryByteAndLengthMatters) {
  std::vector<uint8_t> buf(100);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7);
  }
  const uint64_t want = wire::Xxh64(buf.data(), buf.size());
  EXPECT_NE(wire::Xxh64(buf.data(), buf.size() - 1), want);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 1;
    EXPECT_NE(wire::Xxh64(buf.data(), buf.size()), want) << "byte " << i;
    buf[i] ^= 1;
  }
}

TEST(WireFnv1a, FoldsEachValueAsEightLittleEndianBytes) {
  const uint64_t v = 0x0807060504030201ull;
  uint64_t h = 0xCBF29CE484222325ull;
  for (int i = 1; i <= 8; ++i) {
    h = (h ^ static_cast<uint64_t>(i)) * 0x100000001B3ull;
  }
  wire::Fnv1a f;
  EXPECT_EQ(f.value(), 0xCBF29CE484222325ull);
  f.U64(v);
  EXPECT_EQ(f.value(), h);
}

TEST(WireWriterReader, RoundTripIsLittleEndianAndSizedExactly) {
  auto emit = [](auto& w) {
    w.U32(0x04030201u);
    w.U64(0x0C0B0A0908070605ull);
    w.Str("fluke");
    const uint8_t raw[3] = {0xAA, 0xBB, 0xCC};
    w.Bytes(raw, sizeof(raw));
    w.Crc32Since(0);
  };
  const std::vector<uint8_t> b = wire::Encode(emit);
  ASSERT_EQ(b.size(), 4u + 8 + 4 + 5 + 3 + 4);
  for (uint8_t i = 0; i < 12; ++i) {
    EXPECT_EQ(b[i], i + 1) << "byte " << int{i};
  }

  std::string err;
  wire::Reader r(b, &err);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  std::vector<uint8_t> raw;
  uint32_t crc = 0;
  ASSERT_TRUE(r.U32(&u32) && r.U64(&u64) && r.Str(&s) && r.Bytes(&raw, 3)) << err;
  EXPECT_EQ(u32, 0x04030201u);
  EXPECT_EQ(u64, 0x0C0B0A0908070605ull);
  EXPECT_EQ(s, "fluke");
  EXPECT_EQ(raw, (std::vector<uint8_t>{0xAA, 0xBB, 0xCC}));
  const size_t payload = r.pos();
  ASSERT_TRUE(r.U32(&crc)) << err;
  EXPECT_EQ(crc, wire::Crc32(b.data(), payload));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireWriterReader, TruncationIsRejectedWithItsOffset) {
  const std::vector<uint8_t> b = wire::Encode([](auto& w) {
    w.U32(7);
    w.Str("abcdef");
  });
  // Cut inside the string body: the length field reads, the body does not.
  std::string err;
  wire::Reader r(b.data(), b.size() - 2, &err);
  uint32_t v = 0;
  std::string s;
  ASSERT_TRUE(r.U32(&v));
  EXPECT_FALSE(r.Str(&s));
  EXPECT_EQ(err, "bad string length at offset 8");

  wire::Reader r2(b.data(), 6, &err);
  uint64_t u64 = 0;
  EXPECT_FALSE(r2.U64(&u64));
  EXPECT_EQ(err, "truncated u64 at offset 0");
  ASSERT_TRUE(r2.U32(&v));
  EXPECT_FALSE(r2.U32(&v));
  EXPECT_EQ(err, "truncated u32 at offset 4");
  std::vector<uint8_t> raw;
  EXPECT_FALSE(r2.Bytes(&raw, 3));
  EXPECT_EQ(err, "truncated bytes at offset 4");
  EXPECT_TRUE(r2.Bytes(&raw, 2));
  EXPECT_TRUE(r2.AtEnd());
}

}  // namespace
}  // namespace fluke
