#include "netsim/network_sim.h"

#include "obs/metrics.h"
#include "util/rng.h"

namespace v6h::netsim {

using ipv6::Address;
using util::hash64;
using util::hash_unit;

namespace {

constexpr std::uint8_t kIttls[] = {64, 64, 64, 128, 255};
constexpr std::uint8_t kWscales[] = {0, 2, 7, 8, 14};
constexpr std::uint16_t kMsses[] = {1220, 1380, 1440, 8940};
constexpr std::uint16_t kWsizes[] = {14600, 28800, 29200, 64240, 65535};

// The machine image of a responding probe: every field probe()
// derives from the machine identity alone, plus the timestamp clock
// read at probe time `t` (tsval is one multiply-add of a per-machine
// rate and offset; no clock when `timestamps` is false).
void fill_machine_image(std::uint64_t machine, bool timestamps,
                        std::uint64_t t, ProbeResult* out) {
  out->ittl = kIttls[hash64(machine, 0x17) % 5];
  out->wscale = kWscales[hash64(machine, 0x2C) % 5];
  out->mss = kMsses[hash64(machine, 0x35) % 4];
  out->wsize = kWsizes[hash64(machine, 0x47) % 5];
  out->options_id = static_cast<std::uint8_t>(hash64(machine, 0x59) % 6);
  out->has_timestamp = timestamps;
  if (timestamps) {
    static constexpr std::uint32_t kHz[] = {100, 250, 1000};
    const std::uint32_t hz = kHz[hash64(machine, 0x63) % 3];
    const auto offset = static_cast<std::uint32_t>(hash64(machine, 0x71));
    out->tsval = offset + hz * static_cast<std::uint32_t>(t);
  }
}

// Per-day transient availability shared across protocols so that
// cross-protocol responsiveness stays correlated (Figure 7). The
// stability threshold lives in ZoneProbeParams.
bool host_transient_up(const ZoneProbeParams& zp, std::uint32_t slot, int day) {
  return hash_unit(zp.key, slot, 0xDA1ULL * 131 + static_cast<unsigned>(day)) <
         zp.stability;
}

// Bitnodes-style permanent churn: node populations turn over within
// weeks (Figure 8's ~80 % 14-day retention).
bool node_alive(const ZoneProbeParams& zp, std::uint32_t slot, int day) {
  if (!zp.nodes) return true;
  return hash_unit(zp.key, slot, 0xB17 + static_cast<unsigned>(day / 7)) < 0.82;
}

// Which of the zone's machine services this particular host runs.
net::ProtocolMask host_service_mask(const Zone& zone, std::uint32_t slot) {
  const net::ProtocolMask zone_mask = zone.config().machine_service;
  net::ProtocolMask mask = 0;
  for (const auto protocol : net::kAllProtocols) {
    if (!net::responds_to(zone_mask, protocol)) continue;
    double support = 1.0;
    switch (protocol) {
      case net::Protocol::kIcmp: support = 0.97; break;
      case net::Protocol::kTcp80: support = 0.90; break;
      case net::Protocol::kTcp443: support = 0.80; break;
      case net::Protocol::kUdp53: support = 0.95; break;
      case net::Protocol::kUdp443: support = 0.35; break;
    }
    if (hash_unit(zone.key(), slot, 0x5E00 + net::index_of(protocol)) < support) {
      mask |= net::mask_of(protocol);
    }
  }
  return mask;
}

// Does an answer from aliased space need a roll per address: the
// loss roll, or the flaky-QUIC roll on UDP/443? Without one, every
// aliased address offering `protocol` answers at every (day, seq):
// resolved_responds returns true untouched, and plan_fanout plans a
// settled aliased prefix that no carve-out reaches as always.
bool aliased_rolls(const ZoneProbeParams& zp, net::Protocol protocol) {
  return zp.loss > 0.0 || (zp.quic_flaky && protocol == net::Protocol::kUdp443);
}

// The day/seq-dependent half of probe(): does the target answer this
// particular probe? The caller has already checked the service mask,
// so `zp` is valid and the target is aliased or a live slot. The scan
// kernel (probe_kernel.cpp) is the branch-free columnar form of this
// predicate.
bool resolved_responds(const ZoneProbeParams& zp, std::uint8_t flags,
                       std::uint32_t slot, std::uint64_t addr_hash,
                       net::Protocol protocol, int day, unsigned seq) {
  if (flags & ResolvedTarget::kAliased) {
    if (!aliased_rolls(zp, protocol)) return true;
    if (zp.loss > 0.0 &&
        hash_unit(zp.key, addr_hash,
                  hash64(day, seq, net::index_of(protocol))) < zp.loss) {
      return false;
    }
    if (zp.quic_flaky && protocol == net::Protocol::kUdp443) {
      const double rate = 0.60 + 0.35 * hash_unit(zp.key, 0xF1A, day);
      if (hash_unit(zp.key, addr_hash, 0xF1B + static_cast<unsigned>(day)) >=
          rate) {
        return false;
      }
    }
    return true;
  }
  if (!host_transient_up(zp, slot, day)) return false;
  if (!node_alive(zp, slot, day)) return false;
  if (zp.quic_flaky && protocol == net::Protocol::kUdp443) {
    const double rate = 0.60 + 0.35 * hash_unit(zp.key, 0xF1A, day);
    if (hash_unit(zp.key, slot, 0xF1C + static_cast<unsigned>(day)) >= rate) {
      return false;
    }
  }
  return true;
}

// Does `a`, inside `zone`, answer `protocol` at (day, seq)? The
// responded predicate probe() and the fan-out walk share, plus what
// probe()'s machine image keys on once it does.
struct Answer {
  bool responded = false;
  bool aliased = false;         // aliased space, outside any carve-out
  std::uint32_t slot = 0;       // honest space: the live host slot
  std::uint64_t addr_hash = 0;  // aliased space: the per-address hash
};

Answer answer_of(const Zone& zone, const ZoneProbeParams& zp, const Address& a,
                 net::Protocol protocol, int day, unsigned seq) {
  Answer out;
  const ZoneConfig& config = zone.config();
  out.aliased =
      config.aliased && !(config.carveout && config.carveout->contains(a));
  if (out.aliased) {
    if (!net::responds_to(config.machine_service, protocol)) return out;
    out.addr_hash = hash64(a.hi, a.lo, 0xAD);
    out.responded = resolved_responds(zp, ResolvedTarget::kAliased, 0,
                                      out.addr_hash, protocol, day, seq);
    return out;
  }
  // Honest space: alias carve-out members land here too and die on
  // slot_of (aliased zones never invert), exactly like resolve().
  const auto slot = zone.slot_of(a, day);
  if (!slot || *slot >= config.host_count) return out;
  if (!net::responds_to(host_service_mask(zone, *slot), protocol)) return out;
  out.slot = *slot;
  out.responded = resolved_responds(zp, 0, *slot, 0, protocol, day, seq);
  return out;
}

ZoneProbeParams params_of(const Zone& zone) {
  ZoneProbeParams zp;
  zp.key = zone.key();
  zp.loss = zone.config().loss;
  zp.quic_flaky = zone.config().quic_flaky;
  zp.nodes = zone.config().kind == ZoneKind::kNodes;
  switch (zone.config().kind) {
    case ZoneKind::kNodes: zp.stability = 0.90; break;
    case ZoneKind::kIspCpe: zp.stability = 0.90; break;
    case ZoneKind::kAtlasProbe: zp.stability = 0.97; break;
    default: zp.stability = 0.98; break;
  }
  return zp;
}

}  // namespace

NetworkSim::NetworkSim(const Universe& universe) : universe_(&universe) {
  zone_params_.reserve(universe.zones().size());
  zone_kernel_.reserve(universe.zones().size());
  for (const auto& zone : universe.zones()) {
    const ZoneProbeParams zp = params_of(zone);
    zone_params_.push_back(zp);
    ZoneKernelParams kp;
    kp.key = zp.key;
    kp.loss_t = unit_threshold(zp.loss);
    kp.stab_t = unit_threshold(zp.stability);
    kp.nodes = zp.nodes ? 1 : 0;
    kp.quic_flaky = zp.quic_flaky ? 1 : 0;
    zone_kernel_.push_back(kp);
  }
}

void NetworkSim::count_probes(std::uint64_t n) {
  probes_sent_[obs::lane() % kCounterLanes].sent.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t NetworkSim::probes_sent() const {
  std::uint64_t total = 0;
  for (const CounterCell& cell : probes_sent_) {
    total += cell.sent.load(std::memory_order_relaxed);
  }
  return total;
}

ResolvedTarget NetworkSim::resolve(const Address& a, int day) const {
  ResolvedTarget r;
  const Zone* zone = universe_->zone_at(a);
  if (zone == nullptr) return r;  // unrouted: service_mask 0, never answers
  r.zone = static_cast<std::uint32_t>(zone - universe_->zones().data());
  const ZoneConfig& config = zone->config();

  const bool aliased_here =
      config.aliased && !(config.carveout && config.carveout->contains(a));
  if (aliased_here) {
    r.flags = ResolvedTarget::kAliased;
    r.addr_hash = hash64(a.hi, a.lo, 0xAD);
    r.service_mask = config.machine_service;
    return r;
  }

  // Honest space: carve-out members fall through here too, and die on
  // slot_of (aliased zones never invert) exactly like probe() does.
  r.epoch = zone->epoch(day);
  const auto slot = zone->slot_of(a, day);
  if (!slot || *slot >= config.host_count) return r;  // dead address
  r.slot = *slot;
  r.service_mask = host_service_mask(*zone, *slot);
  return r;
}

ProbeResult NetworkSim::probe(const Address& a, net::Protocol protocol, int day,
                              unsigned seq) {
  // Re-derive everything per call, deriving the machine image only
  // after the probe is known to answer. All probes_sent_ updates are
  // relaxed: pure count, no data published through it (invariant at
  // the declaration).
  count_probes(1);
  ProbeResult out;
  const Zone* zone = universe_->zone_at(a);
  if (zone == nullptr) return out;
  const ZoneProbeParams& zp =
      zone_params_[static_cast<std::size_t>(zone - universe_->zones().data())];
  const Answer answer = answer_of(*zone, zp, a, protocol, day, seq);
  if (!answer.responded) return out;
  out.responded = true;
  const ZoneConfig& config = zone->config();
  const std::uint64_t t = probe_time(day, seq);
  const bool timestamps = config.uniformity != UniformityMode::kUniformNoTs;

  if (answer.aliased) {
    fill_machine_image(zone->key(), timestamps, t, &out);
    if (config.proxy_wsize) {
      // A TCP proxy terminates each flow with its own window.
      out.wsize = static_cast<std::uint16_t>(
          14600 + 1460 * (hash64(answer.addr_hash, 0x90) % 8));
    }
    // Path length varies behind ~30 % of aliased prefixes (the raw-TTL
    // inconsistency the iTTL normalization removes).
    unsigned hops = 6 + static_cast<unsigned>(hash64(zone->key(), 0xB0) % 18);
    if (hash_unit(zone->key(), 0xB1) < 0.3 && (answer.addr_hash & 1) != 0) ++hops;
    out.ttl = static_cast<std::uint8_t>(out.ittl - hops);
    return out;
  }

  const bool uniform = config.uniformity != UniformityMode::kDiverse;
  const std::uint64_t machine =
      uniform ? zone->key() : hash64(zone->key(), answer.slot, 0x3A);
  fill_machine_image(machine, timestamps, t, &out);
  unsigned hops = 6 + static_cast<unsigned>(hash64(zone->key(), 0xB0) % 18);
  if (!uniform) {
    hops += static_cast<unsigned>(hash64(zone->key(), answer.slot, 0xB2) % 3);
  }
  out.ttl = static_cast<std::uint8_t>(out.ittl - hops);
  return out;
}

FanoutDay::FanoutDay(const Seeds& seeds, int day, net::Protocol protocol)
    : seeds(seeds), day(day), protocol(protocol) {
  // resolved_responds' per-probe loss salt, at seq n.
  for (unsigned n = 0; n < kAddresses; ++n) {
    loss_salts[n] = hash64(day, n, net::index_of(protocol));
  }
}

FanoutPlan NetworkSim::plan_fanout(const ipv6::Prefix& prefix,
                                   net::Protocol protocol) const {
  using Kind = FanoutPlan::Kind;
  FanoutPlan plan;
  plan.cursor = universe_->zone_cursor(prefix);
  // Unsettled: a zone lies strictly inside, so addresses differ in zone.
  if (plan.cursor.node >= 0) return plan;
  // Settled: every address inside the prefix lies in this zone, or in
  // none.
  const Zone* zone = universe_->zone_at(plan.cursor, prefix.address());
  if (zone == nullptr) {
    plan.kind = Kind::kNever;
    return plan;
  }
  const ZoneConfig& config = zone->config();
  if (!config.aliased) return plan;
  // Aliased space not serving the protocol is silent, and a carve-out
  // address (honest space, where an aliased zone inverts no slot) is
  // silent too.
  if (!net::responds_to(config.machine_service, protocol)) {
    plan.kind = Kind::kNever;
    return plan;
  }
  const ZoneProbeParams& zp =
      zone_params_[static_cast<std::size_t>(zone - universe_->zones().data())];
  if (zp.quic_flaky && protocol == net::Protocol::kUdp443) return plan;
  const bool carveout_reaches =
      config.carveout && (config.carveout->contains(prefix) ||
                          prefix.contains(*config.carveout));
  plan.kind = aliased_rolls(zp, protocol) || carveout_reaches ? Kind::kLanes
                                                               : Kind::kAlways;
  return plan;
}

bool NetworkSim::decide_fanout(const FanoutDay& day, const ipv6::Prefix& prefix,
                               const FanoutPlan& plan) const {
  switch (plan.kind) {
    case FanoutPlan::Kind::kNever:
      return false;
    case FanoutPlan::Kind::kAlways:
      return true;
    case FanoutPlan::Kind::kLanes: {
      const Zone* zone = universe_->zone_at(plan.cursor, prefix.address());
      const auto& carveout = zone->config().carveout;
      return fanout_lanes(
          prefix, carveout ? &*carveout : nullptr,
          zone_kernel_[static_cast<std::size_t>(zone - universe_->zones().data())],
          day.seeds.data(), day.loss_salts.data());
    }
    case FanoutPlan::Kind::kWalk:
      break;
  }
  return walk_fanout(day, prefix, plan.cursor);
}

bool NetworkSim::walk_fanout(const FanoutDay& day, const ipv6::Prefix& prefix,
                             const Universe::ZoneCursor& cursor) const {
  // A settled cursor keeps its zone for every address; an unsettled
  // one resumes the walk below the prefix per address.
  const bool settled = cursor.node < 0;
  const Zone* zone = nullptr;
  const ZoneProbeParams* zp = nullptr;
  for (unsigned n = 0; n < FanoutDay::kAddresses; ++n) {
    const Address a = prefix.seeded_fanout_address(n, day.seeds[n]);
    if (!settled || zone == nullptr) {
      zone = universe_->zone_at(cursor, a);
      if (zone == nullptr) return false;
      zp = &zone_params_[static_cast<std::size_t>(zone - universe_->zones().data())];
    }
    if (!answer_of(*zone, *zp, a, day.protocol, day.day, n).responded) {
      return false;
    }
  }
  return true;
}

void NetworkSim::decide_fanouts(const FanoutDay& day,
                                const ipv6::Prefix* prefixes,
                                const FanoutPlan* plans, std::size_t count,
                                std::uint8_t* verdicts) {
  count_probes(FanoutDay::kAddresses * count);
  for (std::size_t i = 0; i < count; ++i) {
    verdicts[i] = decide_fanout(day, prefixes[i], plans[i]);
  }
}

void NetworkSim::probe_resolved_mask(const ResolvedColumns& t,
                                     const std::uint32_t* rows,
                                     std::size_t count, net::Protocol protocol,
                                     int day, unsigned seq,
                                     net::ProtocolMask* masks) {
  count_probes(count);
  probe_mask_branchless(t, zone_kernel_.data(), rows, count, protocol, day, seq,
                        masks);
}

}  // namespace v6h::netsim
