#include "core/bitstring.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace lcp {

namespace {

constexpr int words_for(int bits) { return (bits + 63) / 64; }

/// Mirrors the 64 bits of x (bit 0 <-> bit 63).
std::uint64_t reverse_bits(std::uint64_t x) {
#if defined(__clang__)
  return __builtin_bitreverse64(x);
#else
  x = __builtin_bswap64(x);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  return ((x >> 1) & 0x5555555555555555ull) |
         ((x & 0x5555555555555555ull) << 1);
#endif
}

/// The low `width` bits of x in reverse order; width in [1, 64].
std::uint64_t reverse_low(std::uint64_t x, int width) {
  return reverse_bits(x) >> (64 - width);
}

std::uint64_t low_mask(int width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

}  // namespace

BitString::BitString(BitString&& other) noexcept : inline_{0, 0} {
  steal(other);
}

BitString& BitString::copy_from(const BitString& other) {
  if (this == &other) return *this;
  const int need = words_for(other.size_);
  if (need > kInlineWords && capacity_words_ < need) {
    auto* fresh = new std::uint64_t[static_cast<std::size_t>(need)]();
    release();
    heap_ = fresh;
    capacity_words_ = need;
  }
  std::memcpy(words(), other.words(),
              static_cast<std::size_t>(need) * sizeof(std::uint64_t));
  size_ = other.size_;
  return *this;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this == &other) return *this;
  release();
  steal(other);
  return *this;
}

void BitString::steal(BitString& other) noexcept {
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  size_ = other.size_;
  capacity_words_ = other.capacity_words_;
  other.inline_[0] = other.inline_[1] = 0;
  other.size_ = 0;
  other.capacity_words_ = 0;
}

void BitString::release() noexcept {
  if (on_heap()) delete[] heap_;
  inline_[0] = inline_[1] = 0;
  capacity_words_ = 0;
}

void BitString::reserve(int bits) {
  const int need = words_for(bits);
  const int have = on_heap() ? capacity_words_ : kInlineWords;
  if (need <= have) return;
  const int cap = std::max(need, 2 * have);
  auto* fresh = new std::uint64_t[static_cast<std::size_t>(cap)]();
  std::memcpy(fresh, words(),
              static_cast<std::size_t>(words_for(size_)) *
                  sizeof(std::uint64_t));
  if (on_heap()) delete[] heap_;
  heap_ = fresh;
  capacity_words_ = cap;
}

void BitString::append_lsb_first(std::uint64_t bits, int width) {
  if (width == 0) return;
  reserve(size_ + width);
  std::uint64_t* w = words() + (size_ >> 6);
  const int off = size_ & 63;
  if (off == 0) {
    w[0] = bits;  // first touch of this word: plain store, no stale bits
  } else {
    w[0] |= bits << off;
    if (off + width > 64) w[1] = bits >> (64 - off);
  }
  size_ += width;
}

void BitString::append_uint(std::uint64_t value, int width) {
  assert(width >= 0 && width <= 64);
  if (width == 0) return;
  append_lsb_first(reverse_low(value, width), width);
}

void BitString::append(const BitString& other) {
  if (&other == this) {
    const BitString copy(other);
    append(copy);
    return;
  }
  reserve(size_ + other.size_);
  const std::uint64_t* src = other.words();
  const int full = other.size_ >> 6;
  for (int i = 0; i < full; ++i) append_lsb_first(src[i], 64);
  append_lsb_first(full < words_for(other.size_) ? src[full] : 0,
                   other.size_ & 63);
}

std::uint64_t BitString::window(int pos, int width) const {
  const std::uint64_t* w = words() + (pos >> 6);
  const int off = pos & 63;
  std::uint64_t bits = w[0] >> off;
  if (off + width > 64) bits |= w[1] << (64 - off);
  return bits & low_mask(width);
}

std::string BitString::to_string() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

BitString BitString::from_string(std::string_view text) {
  BitString out;
  for (char c : text) out.append_bit(c != '0');
  return out;
}

std::strong_ordering operator<=>(const BitString& a, const BitString& b) {
  // Bits past size() are zero, so the first set bit of a word-wise XOR is
  // the first differing position; past the shorter size it is a length
  // difference, which the final comparison decides.
  const int n = std::min(a.size_, b.size_);
  const std::uint64_t* wa = a.words();
  const std::uint64_t* wb = b.words();
  for (int i = 0; i < words_for(n); ++i) {
    const std::uint64_t diff = wa[i] ^ wb[i];
    if (diff == 0) continue;
    const int pos = i * 64 + std::countr_zero(diff);
    if (pos >= n) break;
    return a.bit(pos) ? std::strong_ordering::greater
                      : std::strong_ordering::less;
  }
  return a.size_ <=> b.size_;
}

std::uint64_t BitString::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(size_));
  static_assert(std::endian::native == std::endian::little,
                "hash() reads the words' bytes in place as bit order");
  const auto* bytes = reinterpret_cast<const unsigned char*>(words());
  for (int i = 0; i < (size_ + 7) / 8; ++i) mix(bytes[i]);
  return h;
}

std::uint64_t BitReader::read_uint(int width) {
  assert(width >= 0 && width <= 64);
  if (width == 0) return 0;
  if (width > remaining()) {
    overrun();
    return 0;
  }
  const std::uint64_t bits = bits_->window(pos_, width);
  pos_ += width;
  return reverse_low(bits, width);
}

BitString BitReader::read_bits(int len) {
  BitString out;
  if (len > remaining()) {
    overrun();
    return out;
  }
  out.reserve(len);
  for (; len >= 64; len -= 64, pos_ += 64) {
    out.append_lsb_first(bits_->window(pos_, 64), 64);
  }
  if (len > 0) {
    out.append_lsb_first(bits_->window(pos_, len), len);
    pos_ += len;
  }
  return out;
}

int bit_width_for(std::uint64_t value) {
  return value == 0 ? 1 : std::bit_width(value);
}

}  // namespace lcp
