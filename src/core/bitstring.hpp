// Packed bit strings: the currency of locally checkable proofs.
//
// A proof (Section 2.1 of the paper) assigns a finite binary string to every
// node; the proof size is the maximum number of bits over all nodes.
// BitString stores such a string compactly and supports streaming writes of
// bits and fixed-width unsigned integers.  BitReader is the matching
// sequential decoder; it never throws on overrun but latches a failure flag,
// so local verifiers can treat any malformed label as "reject".
//
// Storage layout.  Bit i lives in 64-bit word i / 64 at bit position
// i % 64 (LSB-first), and every bit past size() in the last word is zero.
// Up to 128 bits (kInlineWords = 2 words) are stored inside the object,
// which covers the O(log n) certificates of the tree-certified schemes
// (83 bits at n = 10^5); longer strings spill to a heap array that grows
// by doubling.  sizeof(BitString) is 24 and moves never throw.
//
// Integer fields are written and read most-significant bit first, so a
// field's first bit is its MSB; over LSB-first words that is one 64-bit
// bit-reverse plus a shift/mask per field, with no per-bit loop.
//
// hash() is FNV-1a over the bit count and then ceil(size() / 8) bytes, byte
// k holding bits 8k..8k+7 with bit i at position i % 8, zero-padded.  That
// is the words' own byte order on a little-endian host, so hash() reads the
// words' bytes in place.  DeltaTracker fingerprints fold these hashes, so
// the byte sequence is fixed; tests/test_bitstring.cpp pins it.
#ifndef LCP_CORE_BITSTRING_HPP_
#define LCP_CORE_BITSTRING_HPP_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace lcp {

/// An immutable-ish sequence of bits with append-only construction.
class BitString {
 public:
  BitString() noexcept : inline_{0, 0} {}
  BitString(const BitString& other) : inline_{0, 0} {
    if (other.on_heap()) {
      copy_from(other);
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
      size_ = other.size_;
    }
  }
  BitString(BitString&& other) noexcept;
  BitString& operator=(const BitString& other) {
    if (on_heap() || other.on_heap()) return copy_from(other);
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    size_ = other.size_;
    return *this;
  }
  BitString& operator=(BitString&& other) noexcept;
  ~BitString() {
    if (on_heap()) delete[] heap_;
  }

  /// Appends a single bit.
  void append_bit(bool bit) { append_lsb_first(bit ? 1u : 0u, 1); }

  /// Appends `width` bits of `value`, most-significant bit first.
  /// `width` must be in [0, 64]; bits of `value` above `width` are ignored.
  void append_uint(std::uint64_t value, int width);

  /// Appends all bits of another string.
  void append(const BitString& other);

  /// Returns the i-th bit (0-indexed).  Precondition: 0 <= i < size().
  bool bit(int i) const { return ((words()[i >> 6] >> (i & 63)) & 1u) != 0; }

  /// Number of bits stored.
  int size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// Renders as a '0'/'1' string, e.g. "0101".
  std::string to_string() const;

  /// Parses a '0'/'1' string.  Any character other than '0' is read as 1.
  static BitString from_string(std::string_view text);

  friend bool operator==(const BitString& a, const BitString& b) {
    if (a.size_ != b.size_) return false;
    const std::uint64_t* wa = a.words();
    const std::uint64_t* wb = b.words();
    for (int i = 0; i < (a.size_ + 63) >> 6; ++i) {
      if (wa[i] != wb[i]) return false;
    }
    return true;
  }

  /// Lexicographic-by-content ordering (shorter strings first on ties).
  friend std::strong_ordering operator<=>(const BitString& a,
                                          const BitString& b);

  /// FNV-1a hash of the content; suitable for unordered containers.
  std::uint64_t hash() const;

 private:
  friend class BitReader;

  /// Strings of at most 64 * kInlineWords bits need no heap allocation.
  static constexpr int kInlineWords = 2;

  bool on_heap() const { return capacity_words_ > 0; }
  const std::uint64_t* words() const { return on_heap() ? heap_ : inline_; }
  std::uint64_t* words() { return on_heap() ? heap_ : inline_; }

  /// Bits [pos, pos + width) as an LSB-first value; width in [1, 64] and
  /// pos + width <= size().
  std::uint64_t window(int pos, int width) const;

  /// Appends the low `width` bits of `bits` (bit 0 first); the bits above
  /// `width` must be zero.  width in [0, 64].
  void append_lsb_first(std::uint64_t bits, int width);

  /// The copy constructor's and copy assignment's path when either side
  /// is on the heap.
  BitString& copy_from(const BitString& other);

  /// Makes room for `bits` bits in total.
  void reserve(int bits);
  /// Frees heap storage, leaving an inline (capacity-0) string.
  void release() noexcept;
  /// Takes other's storage and leaves it empty; *this holds none.
  void steal(BitString& other) noexcept;

  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };
  int size_ = 0;
  int capacity_words_ = 0;  ///< heap words; 0 while the bits are inline
};

/// Sequential decoder over a BitString.
///
/// All reads past the end return 0 (or an empty string), consume what was
/// left and latch `ok() == false`; verifiers should check `ok()` and reject
/// malformed labels.
class BitReader {
 public:
  explicit BitReader(const BitString& bits) : bits_(&bits) {}

  /// Reads one bit (0 on overrun).
  bool read_bit() { return read_uint(1) != 0; }

  /// Reads `width` bits MSB-first (0 on overrun).  `width` in [0, 64].
  std::uint64_t read_uint(int width);

  /// Reads the next `len` bits as a BitString (empty on overrun).
  BitString read_bits(int len);

  /// Number of unread bits remaining.
  int remaining() const { return bits_->size() - pos_; }

  /// True when every read so far was in bounds.
  bool ok() const { return ok_; }

  /// True when the whole string has been consumed and no read overran.
  bool exhausted() const { return ok_ && remaining() == 0; }

  /// Consumes and returns all remaining bits as a BitString.
  BitString rest() { return read_bits(remaining()); }

 private:
  /// Latches failure and consumes the rest of the string.
  void overrun() {
    ok_ = false;
    pos_ = bits_->size();
  }

  const BitString* bits_;
  int pos_ = 0;
  bool ok_ = true;
};

/// Width in bits of the binary representation of `value` (0 -> 1).
int bit_width_for(std::uint64_t value);

}  // namespace lcp

#endif  // LCP_CORE_BITSTRING_HPP_
