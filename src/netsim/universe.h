#pragma once

// The simulated IPv6 internet the paper's pipeline measures: a BGP
// table of announced prefixes, and "zones" — subnets with a concrete
// addressing scheme, host population, service set, and (for the CDN
// space) full-prefix aliasing with optional honest carve-outs.
//
// Everything is a pure function of UniverseParams, so two universes
// built from the same params are bit-identical and every probe is
// reproducible.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "ipv6/address.h"
#include "ipv6/prefix.h"
#include "ipv6/trie.h"
#include "net/protocol.h"

namespace v6h::netsim {

enum class AddressingScheme {
  kLowCounter,   // ::1, ::2, ... (the paper's dominant cluster)
  kWideCounter,  // counter shifted into mid-IID nybbles
  kEui64,        // SLAAC ff:fe from a per-zone OUI
  kRandom,       // privacy extensions / pseudo-random IIDs
  kStructured,   // word/port-like fixed patterns
};

enum class ZoneKind {
  kCdn,
  kWebHosting,
  kDnsServer,
  kIspCpe,
  kNodes,
  kAtlasProbe,
};

/// How uniform the machines inside an honest zone look to the
/// fingerprinting of Section 5.4.
enum class UniformityMode {
  kDiverse,      // distinct machine images and clocks
  kUniform,      // one image, synchronized clocks (virtualized racks)
  kUniformNoTs,  // one image, TCP timestamps disabled
};

struct ZoneConfig {
  ipv6::Prefix prefix;
  std::uint32_t asn = 0;
  ZoneKind kind = ZoneKind::kWebHosting;
  AddressingScheme scheme = AddressingScheme::kLowCounter;
  std::uint32_t host_count = 0;     // responsive hosts
  std::uint32_t discoverable = 0;   // hitlist-visible pool, >= host_count
  net::ProtocolMask machine_service = 0;
  bool aliased = false;
  double loss = 0.0;                     // per-probe loss (rate limiting)
  std::optional<ipv6::Prefix> carveout;  // honest island inside an alias
  UniformityMode uniformity = UniformityMode::kDiverse;
  bool proxy_wsize = false;  // TCP proxy in front: per-flow window size
  bool quic_flaky = false;   // UDP/443 test deployment, day-to-day flaky
  int lifetime_days = 0;     // >0: addresses rotate every N days
  int phase = 0;
  bool rdns = false;  // zone maintains ip6.arpa PTR records
};

class Zone {
 public:
  Zone(std::uint64_t id, std::uint64_t key, ZoneConfig config)
      : id_(id), key_(key), config_(std::move(config)) {}

  std::uint64_t id() const { return id_; }
  std::uint64_t key() const { return key_; }
  const ipv6::Prefix& prefix() const { return config_.prefix; }
  bool aliased() const { return config_.aliased; }
  const ZoneConfig& config() const { return config_; }

  std::uint32_t discoverable_count() const { return config_.discoverable; }

  /// Address `index` of the zone's hitlist-visible pool. Honest zones
  /// use the zone's addressing scheme (only index < host_count
  /// responds); aliased zones hand out arbitrary addresses.
  ipv6::Address discoverable_address(std::uint32_t index, int day) const;

  /// Canonical address of a live host slot (< host_count).
  ipv6::Address host_address(std::uint32_t slot, int day) const;

  /// Invert an address back to its pool slot at `day`, if it is a
  /// currently-valid canonical address of this (honest) zone.
  std::optional<std::uint32_t> slot_of(const ipv6::Address& a, int day) const;

  /// Rotation epoch for privacy-addressed zones (0 when static).
  int epoch(int day) const {
    return config_.lifetime_days <= 0 ? 0
                                      : (day + config_.phase) / config_.lifetime_days;
  }

 private:
  std::uint64_t iid_of(std::uint32_t slot, int day) const;

  std::uint64_t id_;
  std::uint64_t key_;
  ZoneConfig config_;
};

struct Announcement {
  ipv6::Prefix prefix;
  std::uint32_t asn = 0;
};

class BgpTable {
 public:
  void add(const Announcement& announcement);

  const std::vector<Announcement>& announcements() const { return announcements_; }
  std::size_t size() const { return announcements_.size(); }

  /// Release the announcement list's and the trie's growth slack once
  /// the last announcement is added.
  void shrink_to_fit();

  const Announcement* lookup(const ipv6::Address& a) const;
  std::uint32_t origin_as(const ipv6::Address& a) const;
  bool is_routed(const ipv6::Address& a) const { return lookup(a) != nullptr; }

 private:
  std::vector<Announcement> announcements_;
  ipv6::PrefixTrie<std::uint32_t> trie_;  // index into announcements_
};

struct UniverseParams {
  /// 1.0 reproduces the paper at roughly 1:1000 in addresses; prefix
  /// and AS structure stays at full size.
  double scale = 1.0;
  std::uint32_t tail_as_count = 3000;
  std::uint64_t seed = 42;
};

class Universe {
 public:
  /// With an engine, per-AS zone plans are generated on the workers
  /// (each AS re-seeds its RNG from the universe seed + its ASN, so
  /// no draw depends on the schedule) and committed serially in AS
  /// order — zone ids, trie layout, and BGP order are byte-identical
  /// to the serial build.
  explicit Universe(const UniverseParams& params = {},
                    engine::Engine* engine = nullptr);

  const UniverseParams& params() const { return params_; }
  const std::vector<Zone>& zones() const { return zones_; }
  const BgpTable& bgp() const { return bgp_; }

  /// The zone-trie walk stopped at a prefix: zone_at(zone_cursor(p), a)
  /// equals zone_at(a) for every `a` inside p and walks only the bits
  /// below p, so the APD fan-out's 16 addresses under one prefix share
  /// one descent. The walk is settled (node < 0) exactly when no zone
  /// prefix lies strictly inside p (the zone trie is insert-only):
  /// then every address inside p lies in the same zone, or in none,
  /// and zone_at reads it without walking.
  using ZoneCursor = ipv6::PrefixTrie<std::uint32_t>::Cursor;
  ZoneCursor zone_cursor(const ipv6::Prefix& prefix) const {
    return zone_trie_.descend_settled(prefix);
  }
  const Zone* zone_at(const ZoneCursor& cursor, const ipv6::Address& a) const;
  const Zone* zone_at(const ipv6::Address& a) const {
    return zone_at(ZoneCursor{}, a);
  }

  const std::vector<ipv6::Prefix>& true_aliased_prefixes() const {
    return aliased_prefixes_;
  }

  /// Ground truth: is this address inside fully-aliased space?
  bool truly_aliased_at(const ipv6::Address& a) const;

  std::string as_name(std::uint32_t asn) const;

 private:
  void build(engine::Engine* engine);

  UniverseParams params_;
  std::vector<Zone> zones_;
  ipv6::PrefixTrie<std::uint32_t> zone_trie_;
  BgpTable bgp_;
  std::vector<ipv6::Prefix> aliased_prefixes_;
  std::vector<std::pair<std::uint32_t, std::string>> named_ases_;
};

}  // namespace v6h::netsim
