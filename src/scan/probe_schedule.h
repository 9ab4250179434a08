#pragma once

// Scan scheduling policy: which protocols a daily scan covers, how
// many probes a day may spend, and whether unanswered probes are
// retried. The scan sweeps one protocol at a time over every admitted
// target (SoA batches). The default schedule reproduces the
// historical scan exactly (all five protocols, unlimited budget, no
// retries), so the byte-identical contract holds through it; the
// other knobs open scan-scheduling scenarios for the benches.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"

namespace v6h::scan {

struct ProbeSchedule {
  std::vector<net::Protocol> protocols{net::kAllProtocols.begin(),
                                       net::kAllProtocols.end()};

  /// Daily probe budget; 0 = unlimited. Admission is worst-case (a
  /// target is admitted only if its full protocol x attempt fan-out
  /// fits), so the admitted prefix of the target list is a pure
  /// function of the schedule — never of thread count or of which
  /// probes happened to answer.
  std::uint64_t daily_probe_budget = 0;

  /// Extra attempts for probes that got no answer, at seq 1, 2, ...
  /// (the first attempt is seq 0, NetworkSim::probe's default). Retries
  /// re-roll per-probe loss but not host availability, mirroring how
  /// a real scanner's retransmit beats rate limiting but not downtime.
  unsigned retries = 0;

  /// Worst-case probes one target can cost under this schedule.
  std::uint64_t probes_per_target() const {
    return static_cast<std::uint64_t>(protocols.size()) * (retries + 1u);
  }

  /// How many of `targets` fit the daily budget (all of them when the
  /// budget is 0 or the schedule sends no probes).
  std::size_t admitted_targets(std::size_t targets) const;
};

/// Parse one lowercase protocol name ("icmp", "tcp80", "tcp443",
/// "udp53", "udp443"); std::nullopt for anything else.
std::optional<net::Protocol> protocol_from_name(std::string_view name);

/// The flag-facing name of a protocol (inverse of protocol_from_name).
std::string_view protocol_flag_name(net::Protocol p);

/// Render a protocol list as the comma-separated flag form.
std::string protocols_to_string(const std::vector<net::Protocol>& protocols);

}  // namespace v6h::scan
