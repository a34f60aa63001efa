// IPv4 and IPv6 address value types.
//
// Both types expose the same compile-time interface (the "address concept")
// that the tries, lookup algorithms and the clue machinery are templated on:
//
//   static constexpr int kBits;              // 32 or 128
//   unsigned bit(int pos) const;             // pos 0 == most significant bit
//   A withBit(int pos, unsigned b) const;    // copy with one bit replaced
//   A masked(int len) const;                 // keep the top `len` bits
//   int commonPrefixLen(const A&) const;     // longest shared leading run
//   strong ordering, equality, hashing, parse/format.
//
// Addresses are plain values (trivially copyable, no heap), as the paper's
// data structures store millions of them.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace cluert::ip {

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------
class Ip4Addr {
 public:
  static constexpr int kBits = 32;

  constexpr Ip4Addr() = default;
  constexpr explicit Ip4Addr(std::uint32_t value) : value_(value) {}

  constexpr std::uint32_t value() const { return value_; }

  // Bit at position `pos`, where position 0 is the most significant bit.
  constexpr unsigned bit(int pos) const {
    return (value_ >> (kBits - 1 - pos)) & 1u;
  }

  // Copy of this address with bit `pos` set to `b` (0 or 1).
  constexpr Ip4Addr withBit(int pos, unsigned b) const {
    const std::uint32_t mask = 1u << (kBits - 1 - pos);
    return Ip4Addr(b ? (value_ | mask) : (value_ & ~mask));
  }

  // Keep the top `len` bits, zero the rest. len in [0, 32].
  // Branch-free for every len in [0, kBits]: the shift runs on 64 bits, so
  // len 0 shifts every one out of the low word instead of overflowing.
  constexpr Ip4Addr masked(int len) const {
    const auto mask =
        static_cast<std::uint32_t>(~std::uint64_t{0} << (kBits - len));
    return Ip4Addr(value_ & mask);
  }

  // Length of the longest common leading bit run with `other` (0..32).
  int commonPrefixLen(const Ip4Addr& other) const;

  friend constexpr auto operator<=>(const Ip4Addr&, const Ip4Addr&) = default;

  // Dotted-quad representation, e.g. "192.168.0.1".
  std::string toString() const;

  // Parses dotted-quad notation. Returns nullopt on malformed input.
  static std::optional<Ip4Addr> parse(std::string_view text);

 private:
  std::uint32_t value_ = 0;
};

// ---------------------------------------------------------------------------
// IPv6
// ---------------------------------------------------------------------------
class Ip6Addr {
 public:
  static constexpr int kBits = 128;

  constexpr Ip6Addr() = default;
  constexpr Ip6Addr(std::uint64_t hi, std::uint64_t lo) : hi_(hi), lo_(lo) {}

  constexpr std::uint64_t hi() const { return hi_; }
  constexpr std::uint64_t lo() const { return lo_; }

  constexpr unsigned bit(int pos) const {
    return pos < 64 ? static_cast<unsigned>((hi_ >> (63 - pos)) & 1u)
                    : static_cast<unsigned>((lo_ >> (127 - pos)) & 1u);
  }

  constexpr Ip6Addr withBit(int pos, unsigned b) const {
    Ip6Addr r = *this;
    if (pos < 64) {
      const std::uint64_t mask = std::uint64_t{1} << (63 - pos);
      r.hi_ = b ? (hi_ | mask) : (hi_ & ~mask);
    } else {
      const std::uint64_t mask = std::uint64_t{1} << (127 - pos);
      r.lo_ = b ? (lo_ | mask) : (lo_ & ~mask);
    }
    return r;
  }

  constexpr Ip6Addr masked(int len) const {
    if (len <= 0) return Ip6Addr(0, 0);
    if (len >= kBits) return *this;
    if (len <= 64) {
      const std::uint64_t mask =
          len == 64 ? ~std::uint64_t{0} : (~std::uint64_t{0} << (64 - len));
      return Ip6Addr(hi_ & mask, 0);
    }
    const std::uint64_t mask = ~std::uint64_t{0} << (128 - len);
    return Ip6Addr(hi_, lo_ & mask);
  }

  int commonPrefixLen(const Ip6Addr& other) const;

  friend constexpr auto operator<=>(const Ip6Addr&, const Ip6Addr&) = default;

  // Full (non-compressed) colon-hex representation,
  // e.g. "2001:db8:0:0:0:0:0:1".
  std::string toString() const;

  // Parses colon-hex notation, including a single "::" run.
  static std::optional<Ip6Addr> parse(std::string_view text);

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

// Successor in address order (a + 1), or nullopt if `a` is the maximum
// address. Used to turn inclusive prefix ranges into half-open segment
// boundaries for the interval-based search structures.
constexpr std::optional<Ip4Addr> successor(const Ip4Addr& a) {
  if (a.value() == ~std::uint32_t{0}) return std::nullopt;
  return Ip4Addr(a.value() + 1);
}

constexpr std::optional<Ip6Addr> successor(const Ip6Addr& a) {
  if (a.lo() == ~std::uint64_t{0}) {
    if (a.hi() == ~std::uint64_t{0}) return std::nullopt;
    return Ip6Addr(a.hi() + 1, 0);
  }
  return Ip6Addr(a.hi(), a.lo() + 1);
}

// SplitMix64 finalizer. Standard-library hashes are often the identity,
// which is catastrophic for prefixes (their low bits are all zero, so every
// same-length prefix would land in one hash bucket); mix properly instead.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cluert::ip

template <>
struct std::hash<cluert::ip::Ip4Addr> {
  std::size_t operator()(const cluert::ip::Ip4Addr& a) const noexcept {
    return static_cast<std::size_t>(cluert::ip::mix64(a.value()));
  }
};

template <>
struct std::hash<cluert::ip::Ip6Addr> {
  std::size_t operator()(const cluert::ip::Ip6Addr& a) const noexcept {
    return static_cast<std::size_t>(
        cluert::ip::mix64(a.hi() ^ cluert::ip::mix64(a.lo())));
  }
};
