#include "netsim/universe.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace v6h::netsim {

using ipv6::Address;
using ipv6::Prefix;
using util::hash64;
using util::Rng;

// ---------------------------------------------------------------- Zone

std::uint64_t Zone::iid_of(std::uint32_t slot, int day) const {
  const std::uint32_t idx = slot & 0xff;
  switch (config_.scheme) {
    case AddressingScheme::kLowCounter:
      return static_cast<std::uint64_t>(idx) + 1;
    case AddressingScheme::kWideCounter:
      return (static_cast<std::uint64_t>(idx) + 1) << 20;
    case AddressingScheme::kEui64: {
      const std::uint64_t h = hash64(key_, idx, 0xE01);
      const std::uint64_t oui = h & 0xffffff;
      const std::uint64_t dev = (h >> 24) & 0xff;
      return (oui << 40) | (0xffULL << 32) | (0xfeULL << 24) | (dev << 16) | idx;
    }
    case AddressingScheme::kRandom:
      return util::feistel64_encrypt(hash64(key_, 0xE90C, epoch(day)), slot);
    case AddressingScheme::kStructured:
      return ((key_ & 0xffULL) << 32) | (static_cast<std::uint64_t>(idx) + 1);
  }
  return 0;
}

Address Zone::host_address(std::uint32_t slot, int day) const {
  const unsigned length = config_.prefix.length();
  Address out = config_.prefix.address();
  if (length < 64) {
    const std::uint64_t sub = slot >> 8;
    const std::uint64_t mask = (1ULL << (64 - length)) - 1;
    out.hi |= sub & mask;
  }
  out.lo = iid_of(slot, day);
  return out;
}

Address Zone::discoverable_address(std::uint32_t index, int day) const {
  if (config_.aliased) {
    // CDN hostnames map onto structured plans: a few dense counter
    // ranges per prefix. This is what makes aliased space look like
    // the paper's dominant near-zero-entropy cluster (Figure 2) and
    // gives the hitlist its dense known /64s.
    const std::uint64_t plan = hash64(key_, index >> 8, 0xD15C);
    const unsigned host_bits = 128 - config_.prefix.length();
    std::uint64_t value =
        ((plan & 0x3ULL) << 16) | ((index & 0xffffULL) + 1);
    if (host_bits < 64) value &= (1ULL << host_bits) - 1;
    Address out = config_.prefix.address();
    out.lo |= value;
    return out;
  }
  return host_address(index, day);
}

std::optional<std::uint32_t> Zone::slot_of(const Address& a, int day) const {
  if (config_.aliased || !config_.prefix.contains(a)) return std::nullopt;
  const unsigned length = config_.prefix.length();
  const std::uint64_t sub =
      length < 64 ? (a.hi & ((1ULL << (64 - length)) - 1)) : 0;
  const std::uint64_t iid = a.lo;

  std::uint64_t slot = 0;
  switch (config_.scheme) {
    case AddressingScheme::kLowCounter:
      if (iid == 0 || iid > 0x100) return std::nullopt;
      slot = (sub << 8) | (iid - 1);
      break;
    case AddressingScheme::kWideCounter: {
      const std::uint64_t v = iid >> 20;
      if (v == 0 || v > 0x100 || (iid & 0xfffff) != 0) return std::nullopt;
      slot = (sub << 8) | (v - 1);
      break;
    }
    case AddressingScheme::kEui64: {
      const std::uint64_t idx = iid & 0xffff;
      if (idx > 0xff) return std::nullopt;
      slot = (sub << 8) | idx;
      break;
    }
    case AddressingScheme::kRandom:
      slot = util::feistel64_decrypt(hash64(key_, 0xE90C, epoch(day)), iid);
      break;
    case AddressingScheme::kStructured: {
      const std::uint64_t v = iid & 0xffffffff;
      if (v == 0 || v > 0x100) return std::nullopt;
      slot = (sub << 8) | (v - 1);
      break;
    }
  }
  if (slot >= config_.discoverable) return std::nullopt;
  const auto candidate = static_cast<std::uint32_t>(slot);
  if (host_address(candidate, day) != a) return std::nullopt;
  return candidate;
}

// ------------------------------------------------------------ BgpTable

void BgpTable::add(const Announcement& announcement) {
  trie_.insert(announcement.prefix,
               static_cast<std::uint32_t>(announcements_.size()));
  announcements_.push_back(announcement);
}

void BgpTable::shrink_to_fit() {
  announcements_.shrink_to_fit();
  trie_.shrink_to_fit();
}

const Announcement* BgpTable::lookup(const Address& a) const {
  const std::uint32_t* index = trie_.longest_match(a);
  return index == nullptr ? nullptr : &announcements_[*index];
}

std::uint32_t BgpTable::origin_as(const Address& a) const {
  const Announcement* ann = lookup(a);
  return ann == nullptr ? 0 : ann->asn;
}

// ------------------------------------------------------------ Universe

namespace {

enum class AsRole { kCdn, kHosting, kIsp, kStub };

struct AsSpec {
  std::uint32_t asn;
  const char* name;
  AsRole role;
};

constexpr AsSpec kNamedAses[] = {
    {16509, "Amazon", AsRole::kCdn},
    {19551, "Incapsula", AsRole::kCdn},
    {13335, "Cloudflare", AsRole::kCdn},
    {15169, "Google", AsRole::kHosting},
    {24940, "Hetzner", AsRole::kHosting},
    {16276, "OVH", AsRole::kHosting},
    {12876, "Online S.A.S.", AsRole::kHosting},
    {13238, "Yandex", AsRole::kHosting},
    {9370, "Sakura", AsRole::kHosting},
    {20857, "TransIP", AsRole::kHosting},
    {2519, "Freebit", AsRole::kHosting},
    {14340, "Salesforce", AsRole::kHosting},
    {31815, "AWeber", AsRole::kHosting},
    {3320, "DTAG", AsRole::kIsp},
    {12322, "ProXad", AsRole::kIsp},
    {7922, "Comcast", AsRole::kIsp},
    {6697, "Belpak", AsRole::kIsp},
    {2588, "Latnet", AsRole::kIsp},
    {39238, "Sunokman", AsRole::kIsp},
};

net::ProtocolMask web_mask() {
  return net::mask_of(net::Protocol::kIcmp) | net::mask_of(net::Protocol::kTcp80) |
         net::mask_of(net::Protocol::kTcp443);
}

net::ProtocolMask dns_mask() {
  return net::mask_of(net::Protocol::kIcmp) | net::mask_of(net::Protocol::kUdp53);
}

AddressingScheme pick_scheme(Rng& rng) {
  const double r = rng.uniform_real();
  if (r < 0.45) return AddressingScheme::kLowCounter;
  if (r < 0.60) return AddressingScheme::kWideCounter;
  if (r < 0.75) return AddressingScheme::kEui64;
  if (r < 0.90) return AddressingScheme::kRandom;
  return AddressingScheme::kStructured;
}

UniformityMode pick_honest_uniformity(Rng& rng) {
  const double r = rng.uniform_real();
  if (r < 0.50) return UniformityMode::kDiverse;
  if (r < 0.75) return UniformityMode::kUniform;
  return UniformityMode::kUniformNoTs;
}

}  // namespace

Universe::Universe(const UniverseParams& params, engine::Engine* engine)
    : params_(params) {
  build(engine);
}

const Zone* Universe::zone_at(const ZoneCursor& cursor, const Address& a) const {
  const std::uint32_t* index = zone_trie_.longest_match_from(cursor, a);
  return index == nullptr ? nullptr : &zones_[*index];
}

bool Universe::truly_aliased_at(const Address& a) const {
  const Zone* zone = zone_at(a);
  if (zone == nullptr || !zone->aliased()) return false;
  const auto& carveout = zone->config().carveout;
  return !(carveout && carveout->contains(a));
}

std::string Universe::as_name(std::uint32_t asn) const {
  for (const auto& [known, name] : named_ases_) {
    if (known == asn) return name;
  }
  return "AS" + std::to_string(asn);
}

void Universe::build(engine::Engine* engine) {
  for (const auto& spec : kNamedAses) named_ases_.emplace_back(spec.asn, spec.name);

  const double scale = params_.scale;
  auto scaled = [scale](double base, std::uint32_t floor_value) {
    return std::max<std::uint32_t>(
        floor_value, static_cast<std::uint32_t>(std::llround(base * scale)));
  };

  // One AS = one generation shard: the builder lambdas below write
  // into an AsPlan (no shared state), so plans can be generated on
  // the engine workers and committed serially in AS order.
  struct AsPlan {
    std::vector<Announcement> announcements;
    std::vector<ZoneConfig> zones;
  };

  // Each AS owns one /32; zones are /48 (or deeper) subnets of it,
  // indexed by the 16 bits below the /32 so they never overlap.
  auto as_base = [&](std::uint32_t index) {
    return Prefix(Address::from_u64(
                      (0x20010000ULL + index) << 32, 0),
                  32);
  };
  auto subnet48 = [&](const Prefix& base32, std::uint32_t j) {
    Address a = base32.address();
    a.hi |= static_cast<std::uint64_t>(j & 0xffff) << 16;
    return Prefix(a, 48);
  };

  auto build_cdn_as = [&](std::uint32_t as_index, std::uint32_t asn,
                          std::uint32_t aliased_count,
                          std::uint32_t honest_count, Rng& rng, AsPlan& plan) {
    const Prefix base32 = as_base(as_index);
    std::uint32_t j = 1;
    for (std::uint32_t z = 0; z < aliased_count; ++z) {
      const Prefix p48 = subnet48(base32, j++);
      plan.announcements.push_back({p48, asn});
      ZoneConfig config;
      config.prefix = p48;
      config.asn = asn;
      config.kind = ZoneKind::kCdn;
      config.aliased = true;
      config.discoverable = scaled(400.0, 60);
      config.machine_service = web_mask();
      if (rng.uniform_real() < 0.5) {
        config.machine_service |= net::mask_of(net::Protocol::kUdp443);
        config.quic_flaky = rng.uniform_real() < 0.4;
      }
      const double u = rng.uniform_real();
      if (u < 0.05) {
        config.uniformity = UniformityMode::kUniform;
        config.proxy_wsize = true;
      } else if (u < 0.69) {
        config.uniformity = UniformityMode::kUniform;
      } else {
        config.uniformity = UniformityMode::kUniformNoTs;
      }
      const double stability = rng.uniform_real();
      if (stability < 0.10) {
        config.loss = 0.05 + 0.07 * rng.uniform_real();
      } else if (stability < 0.25) {
        config.loss = 0.01 + 0.03 * rng.uniform_real();
      }
      if (rng.uniform_real() < 0.10) {
        config.carveout = Prefix(p48.random_address(rng.next_u64()), 64);
      }
      plan.zones.push_back(std::move(config));
    }
    for (std::uint32_t z = 0; z < honest_count; ++z) {
      const Prefix p48 = subnet48(base32, j++);
      plan.announcements.push_back({p48, asn});
      ZoneConfig config;
      config.prefix = p48;
      config.asn = asn;
      config.kind = ZoneKind::kCdn;
      config.scheme = pick_scheme(rng);
      config.host_count = scaled(40.0 * (0.5 + 1.5 * rng.uniform_real()), 4);
      config.discoverable = config.host_count * 5;
      config.machine_service = web_mask();
      if (rng.uniform_real() < 0.3) {
        config.machine_service |= net::mask_of(net::Protocol::kUdp443);
        config.quic_flaky = rng.uniform_real() < 0.5;
      }
      config.uniformity = pick_honest_uniformity(rng);
      plan.zones.push_back(std::move(config));
    }
  };

  auto build_server_as = [&](std::uint32_t as_index, std::uint32_t asn,
                             bool hosting, Rng& rng, AsPlan& plan) {
    const Prefix base32 = as_base(as_index);
    plan.announcements.push_back({base32, asn});
    std::uint32_t j = 1;
    const AddressingScheme dominant = pick_scheme(rng);
    const std::uint32_t web_zones = 1 + static_cast<std::uint32_t>(rng.uniform(3));
    for (std::uint32_t z = 0; z < web_zones; ++z) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kWebHosting;
      config.scheme = rng.uniform_real() < 0.8 ? dominant : pick_scheme(rng);
      config.host_count = scaled(25.0 * (0.4 + 2.0 * rng.uniform_real()), 2);
      config.discoverable = config.host_count * 8;
      config.machine_service = web_mask();
      if (rng.uniform_real() < 0.2) {
        config.machine_service |= net::mask_of(net::Protocol::kUdp443);
        config.quic_flaky = rng.uniform_real() < 0.5;
      }
      config.uniformity = pick_honest_uniformity(rng);
      config.rdns = rng.uniform_real() < 0.3;
      plan.zones.push_back(std::move(config));
    }
    if (hosting && rng.uniform_real() < 0.6) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kDnsServer;
      config.scheme = rng.uniform_real() < 0.8 ? dominant : pick_scheme(rng);
      config.host_count = scaled(12.0 * (0.4 + 2.0 * rng.uniform_real()), 2);
      config.discoverable = config.host_count * 8;
      config.machine_service = dns_mask();
      config.uniformity = pick_honest_uniformity(rng);
      config.rdns = rng.uniform_real() < 0.4;
      plan.zones.push_back(std::move(config));
    }
    if (hosting && rng.uniform_real() < 0.12) {
      // Deep aliased pockets inside honest space: the partial /96s and
      // rate-limited deep levels Murdock's static /96 cannot see.
      const double pick = rng.uniform_real();
      const std::uint8_t depth = pick < 0.5 ? 96 : (pick < 0.75 ? 112 : 120);
      const Prefix deep_base = subnet48(base32, 0x8000 + static_cast<std::uint32_t>(
                                                             rng.uniform(0x8000)));
      ZoneConfig config;
      config.prefix = Prefix(deep_base.random_address(rng.next_u64()), depth);
      config.asn = asn;
      config.kind = ZoneKind::kWebHosting;
      config.aliased = true;
      config.discoverable = scaled(80.0, 20);
      config.machine_service = web_mask();
      config.uniformity = UniformityMode::kUniform;
      if (depth >= 112) {
        config.loss = 0.04 + 0.10 * rng.uniform_real();  // ICMP rate limiting
      } else if (rng.uniform_real() < 0.3) {
        config.loss = 0.02 + 0.06 * rng.uniform_real();
      }
      plan.zones.push_back(std::move(config));
    }
    if (rng.uniform_real() < 0.08) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kNodes;
      config.scheme = AddressingScheme::kRandom;
      config.host_count = scaled(8.0 * (0.5 + rng.uniform_real()), 1);
      config.discoverable = config.host_count * 3;
      config.machine_service = net::mask_of(net::Protocol::kIcmp) |
                               net::mask_of(net::Protocol::kTcp80);
      plan.zones.push_back(std::move(config));
    }
    if (rng.uniform_real() < 0.35) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kAtlasProbe;
      config.scheme = AddressingScheme::kLowCounter;
      config.host_count = 1 + static_cast<std::uint32_t>(rng.uniform(2));
      config.discoverable = config.host_count * 2;
      config.machine_service = net::mask_of(net::Protocol::kIcmp);
      plan.zones.push_back(std::move(config));
    }
  };

  auto build_isp_as = [&](std::uint32_t as_index, std::uint32_t asn,
                          double size_factor, Rng& rng, AsPlan& plan) {
    const Prefix base32 = as_base(as_index);
    plan.announcements.push_back({base32, asn});
    std::uint32_t j = 1;
    {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kIspCpe;
      config.scheme = AddressingScheme::kRandom;
      config.host_count =
          scaled(60.0 * size_factor * (0.5 + rng.uniform_real()), 2);
      config.discoverable = config.host_count * 20;
      config.machine_service = net::mask_of(net::Protocol::kIcmp);
      config.lifetime_days = 25 + static_cast<int>(rng.uniform(30));
      config.phase = static_cast<int>(rng.uniform(60));
      config.rdns = size_factor > 4.0 || rng.uniform_real() < 0.25;
      plan.zones.push_back(std::move(config));
    }
    if (rng.uniform_real() < 0.5) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kWebHosting;
      config.scheme = pick_scheme(rng);
      config.host_count = scaled(8.0 * (0.4 + rng.uniform_real()), 1);
      config.discoverable = config.host_count * 8;
      config.machine_service = web_mask();
      config.uniformity = pick_honest_uniformity(rng);
      plan.zones.push_back(std::move(config));
    }
    if (rng.uniform_real() < 0.8) {
      ZoneConfig config;
      config.prefix = subnet48(base32, j++);
      config.asn = asn;
      config.kind = ZoneKind::kAtlasProbe;
      config.scheme = AddressingScheme::kLowCounter;
      config.host_count = 1 + static_cast<std::uint32_t>(rng.uniform(3));
      config.discoverable = config.host_count * 2;
      config.machine_service = net::mask_of(net::Protocol::kIcmp);
      plan.zones.push_back(std::move(config));
    }
  };

  // Named ASes first (stable AS bases), then the long tail. The plan
  // for AS job i is a pure function of (seed, asn, i), so generation
  // fans out across the engine workers.
  const std::size_t named_count = std::size(kNamedAses);
  const std::size_t job_count = named_count + params_.tail_as_count;
  std::vector<AsPlan> plans(job_count);
  auto generate = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      AsPlan& plan = plans[i];
      const auto as_index = static_cast<std::uint32_t>(i);
      if (i < named_count) {
        const AsSpec& spec = kNamedAses[i];
        Rng rng(hash64(params_.seed, spec.asn, 0xA5));
        switch (spec.role) {
          case AsRole::kCdn:
            if (spec.asn == 16509) {
              build_cdn_as(as_index, spec.asn, 280, 60, rng, plan);
            } else if (spec.asn == 19551) {
              build_cdn_as(as_index, spec.asn, 80, 10, rng, plan);
            } else {
              build_cdn_as(as_index, spec.asn, 30, 20, rng, plan);
            }
            break;
          case AsRole::kHosting:
            build_server_as(as_index, spec.asn, true, rng, plan);
            break;
          case AsRole::kIsp: {
            double size_factor = 2.0;
            if (spec.asn == 12322) size_factor = 25.0;  // ProXad: scamper's top AS
            if (spec.asn == 7922) size_factor = 15.0;
            if (spec.asn == 3320) size_factor = 12.0;
            build_isp_as(as_index, spec.asn, size_factor, rng, plan);
            break;
          }
          case AsRole::kStub:
            build_server_as(as_index, spec.asn, false, rng, plan);
            break;
        }
      } else {
        const auto asn =
            static_cast<std::uint32_t>(60000 + (i - named_count));
        Rng rng(hash64(params_.seed, asn, 0xA5));
        const double role = rng.uniform_real();
        if (role < 0.40) {
          build_isp_as(as_index, asn, 0.6 + rng.uniform_real(), rng, plan);
        } else if (role < 0.85) {
          build_server_as(as_index, asn, true, rng, plan);
        } else {
          build_server_as(as_index, asn, false, rng, plan);
        }
      }
    }
  };
  engine::parallel_for(engine, job_count, 16, generate);

  // Serial commit in AS order: zone ids, keys, trie layout, and BGP
  // order are independent of the generation schedule.
  auto add_zone = [&](ZoneConfig config) {
    const auto id = static_cast<std::uint64_t>(zones_.size() + 1);
    const std::uint64_t key = hash64(params_.seed, id, 0x20E5);
    zone_trie_.insert(config.prefix, static_cast<std::uint32_t>(zones_.size()));
    if (config.aliased) aliased_prefixes_.push_back(config.prefix);
    zones_.emplace_back(id, key, std::move(config));
  };
  // The plans fix the zone count, so the zone table (the universe's
  // largest block, ~1 MB at scale 0.3) is sized once and carries no
  // doubling slack for the universe's life.
  std::size_t zone_count = 0;
  for (const auto& plan : plans) zone_count += plan.zones.size();
  zones_.reserve(zone_count);
  for (auto& plan : plans) {
    for (const auto& announcement : plan.announcements) bgp_.add(announcement);
    for (auto& config : plan.zones) add_zone(std::move(config));
  }
  // The tries grew by doubling (at scale 0.3 the zone trie holds
  // ~75k nodes in room for 131,072, 1.5 MB) and are read-only from
  // here on, so their slack goes now rather than living as long as the
  // universe.
  zone_trie_.shrink_to_fit();
  bgp_.shrink_to_fit();
}

}  // namespace v6h::netsim
