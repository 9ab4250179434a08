#pragma once

// IPv6 prefix (masked address + length) with the fan-out and random
// address generators the alias detector builds on.

#include <cstdint>
#include <string>
#include <string_view>

#include "ipv6/address.h"

namespace v6h::ipv6 {

class Prefix {
 public:
  Prefix() = default;

  /// Host bits below `length` are masked off.
  Prefix(const Address& address, std::uint8_t length);

  const Address& address() const { return address_; }
  std::uint8_t length() const { return length_; }

  bool contains(const Address& a) const;
  bool contains(const Prefix& other) const;

  /// "2001:db8::/32"
  std::string to_string() const;

  /// APD probe address: the 4 bits right below the prefix are pinned
  /// to `nybble` and the remaining host bits are filled from `salt`
  /// (Section 5.1's 16-way fan-out).
  Address fanout_address(unsigned nybble, std::uint64_t salt) const;

  /// fanout_address split in two: the seed depends on (nybble, salt)
  /// only, so a detector probing a whole batch of prefixes with the
  /// same 16 salts derives the seeds once.
  static std::uint64_t fanout_seed(unsigned nybble, std::uint64_t salt);
  Address seeded_fanout_address(unsigned nybble, std::uint64_t seed) const;

  /// Uniform pseudo-random address inside the prefix.
  Address random_address(std::uint64_t seed) const;

  friend bool operator==(const Prefix& a, const Prefix& b) {
    return a.length_ == b.length_ && a.address_ == b.address_;
  }
  friend bool operator!=(const Prefix& a, const Prefix& b) { return !(a == b); }
  friend bool operator<(const Prefix& a, const Prefix& b) {
    if (a.address_ != b.address_) return a.address_ < b.address_;
    return a.length_ < b.length_;
  }

 private:
  Address address_;
  std::uint8_t length_ = 0;
};

/// Parse "addr/len" or abort; for literals in benches and tests.
Prefix must_parse_prefix(std::string_view text);

struct PrefixHash {
  std::size_t operator()(const Prefix& p) const {
    return AddressHash{}(p.address()) * 31 + p.length();
  }
};

}  // namespace v6h::ipv6
