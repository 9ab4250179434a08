#include "scan/scan_engine.h"

#include <algorithm>

#include "obs/obs.h"

namespace v6h::scan {

using ipv6::Address;
using netsim::ResolvedColumns;

namespace {

// Rows per retry tile: the retry pass compacts each tile's misses into
// a stack buffer of this many row ids.
constexpr std::size_t kRetryTile = 256;

// Probe one worker chunk of the admitted-row list. `masks` is the
// frame's row-indexed mask column; every write scatters to the
// probe's own row, and admitted rows are unique, so chunks compose
// deterministically for any thread count.
void probe_chunk(netsim::NetworkSim& sim, const ResolvedColumns& cols,
                 const std::uint32_t* rows, net::ProtocolMask* masks,
                 std::size_t count, int day, const ProbeSchedule& schedule) {
  for (const auto protocol : schedule.protocols) {
    sim.probe_resolved_mask(cols, rows, count, protocol, day, /*seq=*/0, masks);
    if (schedule.retries == 0) continue;
    // Retry pass, one fixed stack tile of rows at a time: compact the
    // tile's no-answers and re-probe them at seq 1, 2, ... — a miss
    // stays a miss for availability, but per-probe loss re-rolls with
    // seq. Each row still gets attempts 1..retries until it answers,
    // so tiling changes neither masks nor probe counts; the scatter
    // writes land at the same rows, so no position remap is needed.
    const net::ProtocolMask bit = net::mask_of(protocol);
    std::uint32_t misses[kRetryTile];
    for (std::size_t begin = 0; begin < count; begin += kRetryTile) {
      const std::size_t end = std::min(count, begin + kRetryTile);
      std::size_t missed = 0;
      for (std::size_t k = begin; k < end; ++k) {
        if ((masks[rows[k]] & bit) == 0) misses[missed++] = rows[k];
      }
      for (unsigned attempt = 1; attempt <= schedule.retries && missed > 0;
           ++attempt) {
        sim.probe_resolved_mask(cols, misses, missed, protocol, day, attempt,
                                masks);
        std::size_t still_missed = 0;
        for (std::size_t k = 0; k < missed; ++k) {
          if ((masks[misses[k]] & bit) == 0) misses[still_missed++] = misses[k];
        }
        missed = still_missed;
      }
    }
  }
}

// Shared scan core: probe the frame's admitted rows into its mask
// column, then run the serial completion pass (tallies).
// Workers share `masks` without a lock; every probe scatters to its
// own row and admitted rows are unique, so writes are disjoint and
// the parallel_for return barrier is the release point the serial
// finish pass reads behind. The two halves carry distinct stage spans
// ("scan_probe" / "frame_finish") so the trace separates probe cost
// from result-completion cost.
void run_scan(netsim::NetworkSim& sim, engine::Engine* engine,
              obs::Observability* obs, const ResolvedColumns& cols, int day,
              const ProbeSchedule& schedule, ScanFrame* frame) {
  {
    obs::StageSpan span(obs, obs::Stage::kScanProbe);
    const auto& rows = frame->rows();
    net::ProtocolMask* masks = frame->mutable_masks();
    auto probe_rows = [&](std::size_t begin, std::size_t end) {
      probe_chunk(sim, cols, rows.data() + begin, masks, end - begin, day, schedule);
    };
    engine::parallel_for(engine, rows.size(), 256, probe_rows);
  }
  obs::StageSpan span(obs, obs::Stage::kFrameFinish);
  frame->finish();
}

}  // namespace

void ScanEngine::sync(const hitlist::TargetStore& store, int day) {
  obs::StageSpan span(obs_, obs::Stage::kScanSync);
  const Address* addrs = store.addresses().data();
  table_.refresh(addrs, day, engine_);
  if (store.size() > table_.size()) {
    table_.extend(addrs + table_.size(), store.size() - table_.size(), day,
                  engine_);
  }
}

void ScanEngine::scan_store(const hitlist::TargetStore& store, int day,
                            const ProbeSchedule& schedule, ScanFrame* frame) {
  // admitted_targets(n) = min(budget / probes_per_target, n), so the
  // frame gets the first admitted_targets(u) of the u unaliased rows.
  frame->reset(day, store.addresses().data(), store.size());
  frame->admit_unaliased(store.aliased().data(),
                         schedule.admitted_targets(store.size()));
  run_scan(*sim_, engine_, obs_, table_.columns(), day, schedule, frame);
}

void ScanEngine::scan_addresses(const std::vector<Address>& targets, int day,
                                const ProbeSchedule& schedule,
                                ScanFrame* frame) {
  const std::size_t admitted = schedule.admitted_targets(targets.size());
  ResolvedTargetTable table(*sim_);
  table.extend(targets.data(), admitted, day, engine_);
  frame->reset(day, targets.data(), targets.size());
  frame->admit_iota(admitted);
  run_scan(*sim_, engine_, obs_, table.columns(), day, schedule, frame);
}

}  // namespace v6h::scan
