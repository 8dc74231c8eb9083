// Unit tests for BitString / BitReader: the proof-label codec.
#include "core/bitstring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/proof.hpp"
#include "graph/generators.hpp"
#include "server/protocol.hpp"

namespace lcp {
namespace {

TEST(BitString, EmptyByDefault) {
  BitString b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0);
  EXPECT_EQ(b.to_string(), "");
}

TEST(BitString, AppendBitRoundTrip) {
  BitString b;
  b.append_bit(true);
  b.append_bit(false);
  b.append_bit(true);
  EXPECT_EQ(b.size(), 3);
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
  EXPECT_EQ(b.to_string(), "101");
}

TEST(BitString, AppendUintMsbFirst) {
  BitString b;
  b.append_uint(0b1011, 4);
  EXPECT_EQ(b.to_string(), "1011");
}

TEST(BitString, AppendUintZeroWidthIsNoop) {
  BitString b;
  b.append_uint(42, 0);
  EXPECT_TRUE(b.empty());
}

TEST(BitString, AppendUintIgnoresHighBits) {
  BitString b;
  b.append_uint(0xFF, 3);  // only the low 3 bits
  EXPECT_EQ(b.to_string(), "111");
  BitString c;
  c.append_uint(0b1000, 3);  // bit 3 is above the width
  EXPECT_EQ(c.to_string(), "000");
}

TEST(BitString, FromStringRoundTrip) {
  const BitString b = BitString::from_string("0110010");
  EXPECT_EQ(b.size(), 7);
  EXPECT_EQ(b.to_string(), "0110010");
}

TEST(BitString, EqualityIncludesLength) {
  BitString a = BitString::from_string("01");
  BitString b = BitString::from_string("010");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, BitString::from_string("01"));
}

TEST(BitString, OrderingIsLexicographic) {
  EXPECT_LT(BitString::from_string("0"), BitString::from_string("1"));
  EXPECT_LT(BitString::from_string("01"), BitString::from_string("010"));
  EXPECT_LT(BitString::from_string(""), BitString::from_string("0"));
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::from_string("101");
  a.append(BitString::from_string("01"));
  EXPECT_EQ(a.to_string(), "10101");
}

TEST(BitString, HashDistinguishesContentAndLength) {
  EXPECT_NE(BitString::from_string("0").hash(),
            BitString::from_string("00").hash());
  EXPECT_NE(BitString::from_string("01").hash(),
            BitString::from_string("10").hash());
  EXPECT_EQ(BitString::from_string("0110").hash(),
            BitString::from_string("0110").hash());
}

TEST(BitReader, ReadsBackWhatWasWritten) {
  BitString b;
  b.append_uint(13, 5);
  b.append_bit(true);
  b.append_uint(7, 3);
  BitReader r(b);
  EXPECT_EQ(r.read_uint(5), 13u);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_uint(3), 7u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, OverrunLatchesFailure) {
  BitString b;
  b.append_uint(3, 2);
  BitReader r(b);
  EXPECT_EQ(r.read_uint(2), 3u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.read_uint(1), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.exhausted());
}

TEST(BitReader, RemainingCountsDown) {
  BitString b;
  b.append_uint(0, 10);
  BitReader r(b);
  EXPECT_EQ(r.remaining(), 10);
  r.read_uint(4);
  EXPECT_EQ(r.remaining(), 6);
}

TEST(BitString, RandomRoundTrip64) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t value = rng();
    const int width = 1 + static_cast<int>(rng() % 64);
    const std::uint64_t masked =
        width == 64 ? value : (value & ((1ull << width) - 1));
    BitString b;
    b.append_uint(value, width);
    BitReader r(b);
    EXPECT_EQ(r.read_uint(width), masked);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitWidthFor, Basics) {
  EXPECT_EQ(bit_width_for(0), 1);
  EXPECT_EQ(bit_width_for(1), 1);
  EXPECT_EQ(bit_width_for(2), 2);
  EXPECT_EQ(bit_width_for(255), 8);
  EXPECT_EQ(bit_width_for(256), 9);
}

// ---------------------------------------------------------------------------
// Property tests: the word-level codec against a bit-at-a-time model.

/// The reference model: one bool per bit, fields MSB-first.
struct RefBits {
  std::vector<bool> bits;

  void append_uint(std::uint64_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      bits.push_back(((value >> i) & 1u) != 0);
    }
  }
  std::string to_string() const {
    std::string out;
    for (bool b : bits) out.push_back(b ? '1' : '0');
    return out;
  }
};

/// The model's reader: overruns consume the rest, return 0 and latch.
struct RefReader {
  const RefBits* ref;
  int pos = 0;
  bool ok = true;

  int remaining() const { return static_cast<int>(ref->bits.size()) - pos; }
  std::uint64_t read_uint(int width) {
    if (width > remaining()) {
      ok = false;
      pos = static_cast<int>(ref->bits.size());
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v = (v << 1) | (ref->bits[pos++] ? 1u : 0u);
    return v;
  }
  std::string read_bits(int len) {
    if (len > remaining()) {
      ok = false;
      pos = static_cast<int>(ref->bits.size());
      return "";
    }
    std::string out;
    for (int i = 0; i < len; ++i) out.push_back(ref->bits[pos++] ? '1' : '0');
    return out;
  }
};

std::strong_ordering ref_compare(const RefBits& a, const RefBits& b) {
  const std::size_t n = std::min(a.bits.size(), b.bits.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.bits[i] != b.bits[i]) {
      return a.bits[i] ? std::strong_ordering::greater
                       : std::strong_ordering::less;
    }
  }
  return a.bits.size() <=> b.bits.size();
}

/// A random pair (codec string, model) of exactly `len` bits.
std::pair<BitString, RefBits> random_pair(std::mt19937_64& rng, int len) {
  BitString b;
  RefBits r;
  while (static_cast<int>(r.bits.size()) < len) {
    const int left = len - static_cast<int>(r.bits.size());
    const int w = std::min(left, static_cast<int>(rng() % 65));
    const std::uint64_t v = rng();
    b.append_uint(v, w);
    r.append_uint(w == 64 ? v : v & ((1ull << w) - 1), w);
  }
  return {std::move(b), std::move(r)};
}

void expect_same(const BitString& b, const RefBits& r) {
  ASSERT_EQ(b.size(), static_cast<int>(r.bits.size()));
  EXPECT_EQ(b.to_string(), r.to_string());
}

TEST(CodecProperty, StorageIsCompactAndMovesNeverThrow) {
  EXPECT_EQ(sizeof(BitString), 24u);
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<BitString>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<BitString>);
}

TEST(CodecProperty, UintFieldsAtEveryOffsetAndWidth) {
  // Offsets 0..200 put fields across both word boundaries and across the
  // inline -> heap spill at 128 bits.
  std::mt19937_64 rng(11);
  for (int offset = 0; offset <= 200; ++offset) {
    for (int width = 0; width <= 64; ++width) {
      auto [b, r] = random_pair(rng, offset);
      const std::uint64_t v = rng();
      b.append_uint(v, width);
      r.append_uint(width == 64 ? v : v & ((1ull << width) - 1), width);
      b.append_uint(rng(), static_cast<int>(rng() % 65));  // trailing field
      EXPECT_EQ(b.to_string().substr(
                    0, static_cast<std::size_t>(offset + width)),
                r.to_string());
      BitReader br(b);
      EXPECT_EQ(br.read_bits(offset).to_string(),
                r.to_string().substr(0, static_cast<std::size_t>(offset)));
      const std::uint64_t want = width == 64 ? v : v & ((1ull << width) - 1);
      ASSERT_EQ(br.read_uint(width), want) << offset << "+" << width;
      EXPECT_TRUE(br.ok());
    }
  }
}

TEST(CodecProperty, RandomOpSequencesMatchModel) {
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    BitString b;
    RefBits r;
    const int ops = 1 + static_cast<int>(rng() % 24);
    for (int op = 0; op < ops; ++op) {
      switch (rng() % 4) {
        case 0: {
          const bool bit = (rng() & 1) != 0;
          b.append_bit(bit);
          r.bits.push_back(bit);
          break;
        }
        case 1: {
          const int w = static_cast<int>(rng() % 65);
          const std::uint64_t v = rng();
          b.append_uint(v, w);
          r.append_uint(w == 64 ? v : v & ((1ull << w) - 1), w);
          break;
        }
        case 2: {  // append into an unaligned destination
          auto [ob, orf] = random_pair(rng, static_cast<int>(rng() % 200));
          b.append(ob);
          r.bits.insert(r.bits.end(), orf.bits.begin(), orf.bits.end());
          break;
        }
        default: {  // self-append
          if (b.size() > 300) break;
          b.append(b);
          const std::vector<bool> copy = r.bits;
          r.bits.insert(r.bits.end(), copy.begin(), copy.end());
          break;
        }
      }
      expect_same(b, r);
      for (int i = 0; i < b.size(); ++i) {
        ASSERT_EQ(b.bit(i), r.bits[static_cast<std::size_t>(i)]);
      }
    }
    // Random reads, including overruns, against the model's reader.
    BitReader br(b);
    RefReader rr{&r};
    while (rr.ok) {
      if (rng() % 3 == 0) {
        const int len = static_cast<int>(rng() % 150);
        EXPECT_EQ(br.read_bits(len).to_string(), rr.read_bits(len));
      } else {
        const int w = static_cast<int>(rng() % 65);
        EXPECT_EQ(br.read_uint(w), rr.read_uint(w));
      }
      EXPECT_EQ(br.ok(), rr.ok);
      EXPECT_EQ(br.remaining(), rr.remaining());
    }
  }
}

TEST(CodecProperty, OverrunReturnsZeroLatchesAndConsumes) {
  std::mt19937_64 rng(5);
  for (int len : {0, 1, 63, 64, 65, 127, 128, 129, 255}) {
    auto [b, r] = random_pair(rng, len);
    BitReader br(b);
    br.read_bits(len / 2);
    EXPECT_TRUE(br.ok());
    EXPECT_EQ(br.read_bits(len - len / 2 + 1).size(), 0);
    EXPECT_FALSE(br.ok());
    EXPECT_EQ(br.remaining(), 0);
    EXPECT_FALSE(br.exhausted());
    EXPECT_EQ(br.read_uint(64), 0u);
    EXPECT_EQ(br.read_uint(0), 0u);
    EXPECT_FALSE(br.read_bit());
    EXPECT_TRUE(br.rest().empty());
    EXPECT_FALSE(br.ok());
    if (len > 0 && len < 64) {
      // A field wider than what is left: 0, even though bits remained.
      BitReader wide(b);
      EXPECT_EQ(wide.read_uint(len + 1), 0u);
      EXPECT_FALSE(wide.ok());
      EXPECT_EQ(wide.remaining(), 0);
    }
  }
}

TEST(CodecProperty, RestReturnsTheUnreadSuffix) {
  std::mt19937_64 rng(17);
  for (int len = 0; len <= 300; len += 7) {
    auto [b, r] = random_pair(rng, len);
    for (int skip : {0, std::min(1, len), len / 3, len}) {
      BitReader br(b);
      br.read_bits(skip);
      const BitString rest = br.rest();
      EXPECT_EQ(rest.to_string(),
                r.to_string().substr(static_cast<std::size_t>(skip)));
      EXPECT_TRUE(br.exhausted());
    }
  }
}

TEST(CodecProperty, EqualityAndOrderingMatchModel) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 3000; ++trial) {
    auto [a, ra] = random_pair(rng, static_cast<int>(rng() % 260));
    BitString b;
    RefBits rb;
    switch (rng() % 3) {
      case 0:  // independent
        std::tie(b, rb) = random_pair(rng, static_cast<int>(rng() % 260));
        break;
      case 1: {  // a prefix of a, possibly extended
        const int keep = ra.bits.empty()
                             ? 0
                             : static_cast<int>(rng() % (ra.bits.size() + 1));
        b = BitReader(a).read_bits(keep);
        rb.bits.assign(ra.bits.begin(), ra.bits.begin() + keep);
        auto [ext, rext] = random_pair(rng, static_cast<int>(rng() % 3));
        b.append(ext);
        rb.bits.insert(rb.bits.end(), rext.bits.begin(), rext.bits.end());
        break;
      }
      default: {  // a with one bit flipped
        rb = ra;
        if (!rb.bits.empty()) {
          const std::size_t i = rng() % rb.bits.size();
          rb.bits[i] = !rb.bits[i];
        }
        b = BitString::from_string(rb.to_string());
        break;
      }
    }
    EXPECT_EQ(a == b, ra.bits == rb.bits);
    EXPECT_EQ(a <=> b, ref_compare(ra, rb));
    EXPECT_EQ(b <=> a, ref_compare(rb, ra));
    if (a == b) {
      EXPECT_EQ(a.hash(), b.hash());
    }
  }
}

TEST(CodecProperty, CopyAndMoveAcrossInlineAndHeap) {
  std::mt19937_64 rng(3);
  const std::vector<int> sizes = {0, 1, 64, 100, 128, 129, 200, 500};
  for (int from : sizes) {
    for (int to : sizes) {
      auto [src, rsrc] = random_pair(rng, from);
      auto [dst, rdst] = random_pair(rng, to);
      // Copy-assign over an existing value of another size class.
      BitString copy = dst;
      copy = src;
      expect_same(copy, rsrc);
      expect_same(src, rsrc);
      copy.append_uint(5, 3);  // the copy owns its storage
      expect_same(src, rsrc);
      // Move-assign and move-construct; the source becomes empty.
      BitString moved = dst;
      moved = std::move(copy);
      EXPECT_EQ(moved.size(), from + 3);
      EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
      copy.append_uint(1, 1);     // a moved-from string is reusable
      EXPECT_EQ(copy.to_string(), "1");
      BitString constructed(std::move(moved));
      EXPECT_EQ(constructed.size(), from + 3);
      EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
      // Self-assignment keeps the value.
      BitString& alias = dst;
      dst = alias;
      expect_same(dst, rdst);
      dst = std::move(alias);
      expect_same(dst, rdst);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pins: values recorded from the byte-vector codec that preceded the
// word-level one.  hash() feeds DeltaTracker fingerprints and the wire codec
// is a protocol, so both must stay byte-identical.

/// Labels of every length 0..300 built from random-width fields.
std::vector<BitString> pin_corpus() {
  std::mt19937_64 rng(20110606);
  std::vector<BitString> out;
  for (int len = 0; len <= 300; ++len) {
    BitString b;
    int left = len;
    while (left > 0) {
      const int w = std::min(left, 1 + static_cast<int>(rng() % 64));
      b.append_uint(rng(), w);
      left -= w;
    }
    out.push_back(b);
  }
  return out;
}

TEST(GoldenPins, HashMatchesByteVectorCodec) {
  const std::vector<BitString> corpus = pin_corpus();
  std::uint64_t fold = 0;
  for (const BitString& b : corpus) fold = (fold ^ b.hash()) * 1099511628211ull;
  EXPECT_EQ(fold, 0xb7878e0d643c1730ull);
  const std::vector<std::pair<int, std::uint64_t>> pins = {
      {0, 0x44bd2bd473ccf799ull},   {1, 0x9a65ad00c545d5d2ull},
      {7, 0x9a6caa00c54bef67ull},   {8, 0x9a850700c5611f4full},
      {64, 0x49f9ca13d0767e9bull},  {83, 0x95791095a0a55721ull},
      {128, 0xfe9b08f24f31f6cdull}, {129, 0x19ca9f24e2623f2aull},
      {300, 0x5448416060a9ce83ull}};
  for (const auto& [len, hash] : pins) {
    EXPECT_EQ(corpus[static_cast<std::size_t>(len)].hash(), hash) << len;
  }
}

TEST(GoldenPins, StateFingerprintMatchesByteVectorCodec) {
  const std::vector<BitString> corpus = pin_corpus();
  const Graph grid = gen::grid(6, 7);
  Proof p = Proof::empty(grid.n());
  for (int v = 0; v < grid.n(); ++v) {
    p.labels[static_cast<std::size_t>(v)] =
        corpus[static_cast<std::size_t>((v * 7) % 301)];
  }
  EXPECT_EQ(DeltaTracker::state_fingerprint_of(grid, p),
            0x9b47310a51f247c3ull);
  const Graph cycle = gen::cycle(50);
  Proof q = Proof::empty(cycle.n());
  for (int v = 0; v < cycle.n(); ++v) {
    q.labels[static_cast<std::size_t>(v)] =
        corpus[static_cast<std::size_t>(v * 6)];
  }
  EXPECT_EQ(DeltaTracker::state_fingerprint_of(cycle, q),
            0x3dcd1366d7ce26f0ull);
}

TEST(GoldenPins, WireBitsMatchByteVectorCodec) {
  const std::vector<BitString> corpus = pin_corpus();
  const std::vector<std::pair<int, std::string>> pins = {
      {0, "00000000"},
      {1, "0100000000"},
      {5, "0500000058"},
      {8, "0800000023"},
      {13, "0d00000015c0"},
      {64, "40000000b10638251f946e54"},
      {83, "530000003f88602d65efcede1125e0"},
      {129, "81000000ff23e40096733e41c3e2d7c730bd216600"},
      {200, "c8000000e40a3cf0b4f1c83d56c8d333b979d22b6223656601bdf81104"}};
  for (const auto& [len, hex] : pins) {
    const BitString& label = corpus[static_cast<std::size_t>(len)];
    std::vector<std::uint8_t> bytes;
    server::WireWriter(&bytes).bits(label);
    std::string got;
    for (std::uint8_t byte : bytes) {
      char buf[3];
      std::snprintf(buf, sizeof buf, "%02x", byte);
      got += buf;
    }
    EXPECT_EQ(got, hex) << len;
    server::WireReader reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.bits(), label) << len;
    EXPECT_TRUE(reader.ok());
  }
}

}  // namespace
}  // namespace lcp
