#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace v6h::obs {

Registry::Registry(unsigned lanes)
    : lanes_(lanes == 0 ? 1 : lanes),
      cells_(static_cast<std::size_t>(lanes_) * kMaxMetrics),
      merged_(kMaxMetrics, 0),
      prev_(kMaxMetrics, 0),
      day_(kMaxMetrics, 0) {
  descs_.reserve(kMaxMetrics);
}

MetricId Registry::register_metric(const char* name, MetricKind kind,
                                   bool deterministic) {
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    if (std::strcmp(descs_[i].name, name) != 0) continue;
    if (descs_[i].kind != kind) {
      std::fprintf(stderr,
                   "obs::Registry: metric '%s' re-registered with a "
                   "different kind\n",
                   name);
      std::abort();
    }
    return static_cast<MetricId>(i);
  }
  if (descs_.size() >= kMaxMetrics) {
    std::fprintf(stderr,
                 "obs::Registry: capacity exceeded registering '%s' "
                 "(%zu/%zu metrics)\n",
                 name, descs_.size(), kMaxMetrics);
    std::abort();
  }
  Desc d;
  d.name = name;
  d.kind = kind;
  d.deterministic = deterministic;
  descs_.push_back(d);
  return static_cast<MetricId>(descs_.size() - 1);
}

MetricId Registry::counter(const char* name, bool deterministic) {
  return register_metric(name, MetricKind::kCounter, deterministic);
}

MetricId Registry::gauge(const char* name, bool deterministic) {
  return register_metric(name, MetricKind::kGauge, deterministic);
}

void Registry::merge_day() {
  // Serial fold on the coordinator; the pool barrier of the day's last
  // parallel phase ordered every worker-lane store before this read.
  for (std::size_t id = 0; id < descs_.size(); ++id) {
    std::uint64_t sum = 0;
    for (unsigned l = 0; l < lanes_; ++l) {
      sum += cells_[static_cast<std::size_t>(l) * kMaxMetrics + id].load(
          std::memory_order_relaxed);
    }
    day_[id] = descs_[id].kind == MetricKind::kGauge ? sum : sum - prev_[id];
    prev_[id] = sum;
    merged_[id] = sum;
  }
}

}  // namespace v6h::obs
