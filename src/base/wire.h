// Wire toolkit: the byte-level primitives shared by every format the
// simulator writes -- checkpoint images (workloads/ckpt_image), restart-log
// records (workloads/restart_log) and the FBT binary trace
// (kern/trace_binary).
//
//   Crc32    reflected CRC-32 (IEEE 802.3), slicing-by-8 over tables built
//            at compile time; the guard on every stream, chunk and record
//   Xxh64    XXH64, word-parallel; the identity of a checkpoint image
//   Fnv1a    byte-serial FNV-1a over u64s folded as 8 little-endian bytes;
//            the schedule and trace digests
//   Sizer    counts the bytes a Writer would append, so a format sizes its
//            buffer exactly by running its emit code twice
//   Writer   little-endian appends into that pre-sized buffer
//   Reader   bounds-checked little-endian reads; every failure names its
//            byte offset
//
// All multi-byte fields are little-endian on every host.

#ifndef SRC_BASE_WIRE_H_
#define SRC_BASE_WIRE_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fluke::wire {

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void StoreLe32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

// --- CRC-32 ----------------------------------------------------------------

namespace detail {

// tables[0] is the classic byte-at-a-time table; tables[k][b] advances the
// CRC of byte b through k further zero bytes, so eight lookups consume eight
// input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Tables = MakeCrc32Tables();

}  // namespace detail

inline uint32_t Crc32(const uint8_t* data, size_t len) {
  const auto& t = detail::kCrc32Tables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- XXH64 -----------------------------------------------------------------

// XXH64 (Collet's xxHash, 64-bit variant). Four independent lanes consume 32
// bytes per step, so the multiplies overlap instead of each waiting on the
// previous byte as FNV-1a's do.
inline uint64_t Xxh64(const uint8_t* p, size_t len, uint64_t seed = 0) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;
  auto round = [](uint64_t acc, uint64_t in) { return std::rotl(acc + in * kP2, 31) * kP1; };
  auto merge = [&round](uint64_t h, uint64_t v) { return (h ^ round(0, v)) * kP1 + kP4; };

  uint64_t h = 0;
  size_t rem = len;
  if (rem >= 32) {
    uint64_t v1 = seed + kP1 + kP2;
    uint64_t v2 = seed + kP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kP1;
    for (; rem >= 32; p += 32, rem -= 32) {
      v1 = round(v1, LoadLe64(p));
      v2 = round(v2, LoadLe64(p + 8));
      v3 = round(v3, LoadLe64(p + 16));
      v4 = round(v4, LoadLe64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += len;
  for (; rem >= 8; p += 8, rem -= 8) {
    h = std::rotl(h ^ round(0, LoadLe64(p)), 27) * kP1 + kP4;
  }
  if (rem >= 4) {
    h = std::rotl(h ^ LoadLe32(p) * kP1, 23) * kP2 + kP3;
    p += 4;
    rem -= 4;
  }
  for (; rem > 0; ++p, --rem) {
    h = std::rotl(h ^ *p * kP5, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// --- FNV-1a ----------------------------------------------------------------

// 64-bit FNV-1a, folding each value as its eight little-endian bytes. Serial
// by construction (every byte waits on the previous multiply): for short
// digests of counters and event fields, not for bulk data.
class Fnv1a {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;  // offset basis
};

// --- Writing ---------------------------------------------------------------

// The emit side of a format is written once as a template over its sink:
// run with a Sizer it yields the exact length, run with a Writer over a
// buffer of that length it fills the buffer. Both sinks take the same calls.
class Sizer {
 public:
  void U32(uint32_t) { n_ += 4; }
  void U64(uint64_t) { n_ += 8; }
  void Bytes(const void*, size_t n) { n_ += n; }
  void Str(const std::string& s) { n_ += 4 + s.size(); }
  void Crc32Since(size_t) { n_ += 4; }
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

class Writer {
 public:
  // Writes into `buf`, which must already have exactly the final size.
  explicit Writer(std::vector<uint8_t>& buf)
      : begin_(buf.data()), p_(buf.data()), end_(buf.data() + buf.size()) {}

  void U32(uint32_t v) {
    assert(end_ - p_ >= 4);
    StoreLe32(p_, v);
    p_ += 4;
  }
  void U64(uint64_t v) {
    assert(end_ - p_ >= 8);
    StoreLe64(p_, v);
    p_ += 8;
  }
  void Bytes(const void* data, size_t n) {
    assert(static_cast<size_t>(end_ - p_) >= n);
    if (n != 0) {
      std::memcpy(p_, data, n);
    }
    p_ += n;
  }
  // u32 length, then the bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  // Appends the CRC-32 of everything written since offset `from`.
  void Crc32Since(size_t from) { U32(Crc32(begin_ + from, size() - from)); }
  size_t size() const { return static_cast<size_t>(p_ - begin_); }
  bool full() const { return p_ == end_; }

 private:
  uint8_t* begin_;
  uint8_t* p_;
  uint8_t* end_;
};

// Encodes a stream in one allocation: `emit(sink)` is called with a Sizer,
// then with a Writer over a buffer of exactly the counted size. `emit` must
// make the same calls both times.
template <class Emit>
std::vector<uint8_t> Encode(const Emit& emit) {
  Sizer sizer;
  emit(sizer);
  std::vector<uint8_t> out(sizer.size());
  Writer w(out);
  emit(w);
  assert(w.full());
  return out;
}

// --- Reading ---------------------------------------------------------------

// Bounds-checked cursor over a byte span. Every read either succeeds and
// advances past its field or fails, setting *error to "<why> at offset
// <pos>" with <pos> the offset the read stopped at.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size, std::string* error)
      : data_(data), size_(size), error_(error) {}
  Reader(const std::vector<uint8_t>& b, std::string* error) : Reader(b.data(), b.size(), error) {}

  // The fixed-width reads are forced inline: a decoder makes one call per
  // field, and GCC stops inlining into a function as large as a whole-format
  // parser.
  [[gnu::always_inline]] bool U32(uint32_t* v) {
    if (size_ - pos_ < 4) {
      return Fail("truncated u32");
    }
    *v = LoadLe32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  [[gnu::always_inline]] bool U64(uint64_t* v) {
    if (size_ - pos_ < 8) {
      return Fail("truncated u64");
    }
    *v = LoadLe64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  // u32 length (at most `max_len`), then the bytes.
  bool Str(std::string* s, uint32_t max_len = 4096) {
    uint32_t n = 0;
    if (!U32(&n)) {
      return false;
    }
    if (n > max_len || size_ - pos_ < n) {
      return Fail("bad string length");
    }
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  bool Bytes(std::vector<uint8_t>* v, size_t n) {
    if (size_ - pos_ < n) {
      return Fail("truncated bytes");
    }
    v->assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return true;
  }
  // Out of line and cold: the failure path stays out of every inlined read.
  [[gnu::cold, gnu::noinline]] bool Fail(const char* why) {
    *error_ = std::string(why) + " at offset " + std::to_string(pos_);
    return false;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace fluke::wire

#endif  // SRC_BASE_WIRE_H_
