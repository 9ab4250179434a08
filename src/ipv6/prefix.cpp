#include "ipv6/prefix.h"

#include <cstdio>
#include <cstdlib>

#include "util/rng.h"

namespace v6h::ipv6 {

namespace {

// Masks keeping the top `bits` of a 64-bit half (bits in [0, 64]).
std::uint64_t keep_top(std::uint64_t value, unsigned bits) {
  if (bits == 0) return 0;
  if (bits >= 64) return value;
  return value & ~((1ULL << (64 - bits)) - 1);
}

}  // namespace

Prefix::Prefix(const Address& address, std::uint8_t length) : length_(length) {
  if (length_ > 128) length_ = 128;
  address_.hi = keep_top(address.hi, length_);
  address_.lo = length_ <= 64 ? 0 : keep_top(address.lo, length_ - 64);
}

bool Prefix::contains(const Address& a) const {
  const unsigned len = length_;
  if (keep_top(a.hi, len > 64 ? 64 : len) != address_.hi) return false;
  if (len <= 64) return true;
  return keep_top(a.lo, len - 64) == address_.lo;
}

bool Prefix::contains(const Prefix& other) const {
  return other.length() >= length_ && contains(other.address());
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

Address Prefix::fanout_address(unsigned nybble, std::uint64_t salt) const {
  return seeded_fanout_address(nybble, fanout_seed(nybble, salt));
}

std::uint64_t Prefix::fanout_seed(unsigned nybble, std::uint64_t salt) {
  return util::hash64(salt, 0x4fa17ULL, nybble);
}

Address Prefix::seeded_fanout_address(unsigned nybble, std::uint64_t seed) const {
  Address out = random_address(seed);
  if (length_ <= 124) {
    // Pin the first nybble below the prefix; nybble index is the count
    // of whole nybbles above it.
    const unsigned index = length_ / 4;
    const unsigned aligned_bit = index * 4;
    if (aligned_bit >= length_) {
      out = out.with_nybble(index, nybble);
    } else {
      out = out.with_nybble(index + 1, nybble);
    }
  }
  return out;
}

Address Prefix::random_address(std::uint64_t seed) const {
  const std::uint64_t r_hi =
      util::hash64(seed, address_.hi ^ 0x9d2c5680ULL, address_.lo + length_);
  const std::uint64_t r_lo = util::hash64(r_hi, seed ^ 0x5f356495ULL, address_.hi);
  Address out;
  if (length_ >= 64) {
    out.hi = address_.hi;
    const unsigned host_bits = 128 - length_;
    const std::uint64_t mask = host_bits >= 64 ? ~0ULL : ((1ULL << host_bits) - 1);
    out.lo = address_.lo | (r_lo & mask);
  } else {
    const unsigned hi_host_bits = 64 - length_;
    const std::uint64_t mask =
        hi_host_bits >= 64 ? ~0ULL : ((1ULL << hi_host_bits) - 1);
    out.hi = address_.hi | (r_hi & mask);
    out.lo = r_lo;
  }
  return out;
}

Prefix must_parse_prefix(std::string_view text) {
  const std::size_t slash = text.rfind('/');
  if (slash == std::string_view::npos) {
    std::fprintf(stderr, "must_parse_prefix: missing '/' in '%.*s'\n",
                 static_cast<int>(text.size()), text.data());
    std::abort();
  }
  const Address base = must_parse(text.substr(0, slash));
  int length = 0;
  for (const char ch : text.substr(slash + 1)) {
    if (ch < '0' || ch > '9') {
      std::fprintf(stderr, "must_parse_prefix: bad length in '%.*s'\n",
                   static_cast<int>(text.size()), text.data());
      std::abort();
    }
    length = length * 10 + (ch - '0');
  }
  if (length > 128) length = 128;
  return Prefix(base, static_cast<std::uint8_t>(length));
}

}  // namespace v6h::ipv6
