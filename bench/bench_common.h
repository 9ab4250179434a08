#pragma once

// Shared plumbing for the paper-reproduction bench binaries: CLI
// parsing (--scale, --days, --out), universe construction, hitlist
// assembly, and "paper vs measured" row printing.
//
// This header is deliberately the benches' common include surface:
// the std containers and util headers below are part of its contract
// (the bench .cpp files rely on them transitively), so keep them even
// if bench_common.h itself stops referencing one.

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace v6h::bench {

namespace detail {

inline double parse_double(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

inline int parse_int(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < INT_MIN ||
      value > INT_MAX) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

inline long long parse_int64(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

/// Comma-separated protocol names ("icmp,tcp80,..."); any unknown,
/// empty or repeated name is a CLI-contract violation (exit 2).
inline std::vector<net::Protocol> parse_protocols(const char* flag,
                                                  const char* text) {
  std::vector<net::Protocol> out;
  const std::string_view list(text);
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string_view name =
        list.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    const auto protocol = scan::protocol_from_name(name);
    if (!protocol) {
      std::fprintf(stderr,
                   "unknown protocol '%.*s' for %s (valid: icmp, tcp80, "
                   "tcp443, udp53, udp443)\n",
                   static_cast<int>(name.size()), name.data(), flag);
      std::exit(2);
    }
    if (std::find(out.begin(), out.end(), *protocol) != out.end()) {
      std::fprintf(stderr, "duplicate protocol '%.*s' for %s\n",
                   static_cast<int>(name.size()), name.data(), flag);
      std::exit(2);
    }
    out.push_back(*protocol);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s needs at least one protocol\n", flag);
    std::exit(2);
  }
  return out;
}

}  // namespace detail

struct BenchArgs {
  double scale = 1.0;
  int days = 3;          // pipeline days to run (fills the APD window)
  int horizon = 270;     // source-growth day used as "now"
  int threads = 0;       // engine workers; 0 = hardware concurrency, 1 = serial
  // Scan-schedule scenario knobs (--protocols, --probe-budget,
  // --retries); defaults reproduce the paper's full scan.
  std::vector<net::Protocol> protocols{net::kAllProtocols.begin(),
                                       net::kAllProtocols.end()};
  long long probe_budget = 0;  // daily probe budget; 0 = unlimited
  int retries = 0;             // extra attempts for unanswered probes
  std::string out_dir = ".";

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      auto next_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      if (std::strcmp(argv[i], "--scale") == 0) {
        args.scale = detail::parse_double("--scale", next_value("--scale"));
      } else if (std::strcmp(argv[i], "--days") == 0) {
        args.days = detail::parse_int("--days", next_value("--days"));
      } else if (std::strcmp(argv[i], "--horizon") == 0) {
        args.horizon = detail::parse_int("--horizon", next_value("--horizon"));
      } else if (std::strcmp(argv[i], "--threads") == 0) {
        args.threads = detail::parse_int("--threads", next_value("--threads"));
      } else if (std::strcmp(argv[i], "--protocols") == 0) {
        args.protocols =
            detail::parse_protocols("--protocols", next_value("--protocols"));
      } else if (std::strcmp(argv[i], "--probe-budget") == 0) {
        args.probe_budget = detail::parse_int64("--probe-budget",
                                                next_value("--probe-budget"));
      } else if (std::strcmp(argv[i], "--retries") == 0) {
        args.retries = detail::parse_int("--retries", next_value("--retries"));
      } else if (std::strcmp(argv[i], "--out") == 0) {
        args.out_dir = next_value("--out");
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf(
            "flags: --scale S --days N --horizon D --threads T --out DIR "
            "--protocols icmp,tcp80,tcp443,udp53,udp443 --probe-budget N "
            "--retries N\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        std::exit(2);
      }
    }
    if (!(args.scale > 0.0)) {
      std::fprintf(stderr, "--scale must be positive (got %g)\n", args.scale);
      std::exit(2);
    }
    if (args.days <= 0) {
      std::fprintf(stderr, "--days must be positive (got %d)\n", args.days);
      std::exit(2);
    }
    if (args.horizon <= 0) {
      std::fprintf(stderr, "--horizon must be positive (got %d)\n",
                   args.horizon);
      std::exit(2);
    }
    if (args.threads < 0) {
      std::fprintf(stderr, "--threads must be non-negative (got %d)\n",
                   args.threads);
      std::exit(2);
    }
    // Cap before the Engine spawns: a huge value would die on a
    // std::system_error from std::thread instead of the CLI contract.
    if (args.threads > 1024) {
      std::fprintf(stderr, "--threads must be at most 1024 (got %d)\n",
                   args.threads);
      std::exit(2);
    }
    if (args.probe_budget < 0) {
      std::fprintf(stderr, "--probe-budget must be non-negative (got %lld)\n",
                   args.probe_budget);
      std::exit(2);
    }
    if (args.retries < 0 || args.retries > 16) {
      std::fprintf(stderr, "--retries must be between 0 and 16 (got %d)\n",
                   args.retries);
      std::exit(2);
    }
    return args;
  }

  netsim::UniverseParams universe_params() const {
    netsim::UniverseParams params;
    params.scale = scale;
    return params;
  }

  /// The daily scan schedule from the scenario flags.
  scan::ProbeSchedule schedule() const {
    scan::ProbeSchedule schedule;
    schedule.protocols = protocols;
    schedule.daily_probe_budget = static_cast<std::uint64_t>(probe_budget);
    schedule.retries = static_cast<unsigned>(retries);
    return schedule;
  }

  /// Pipeline options honoring the schedule flags; every bench that
  /// constructs a Pipeline goes through this so the flags work
  /// uniformly.
  hitlist::PipelineOptions pipeline_options() const {
    hitlist::PipelineOptions options;
    options.schedule = schedule();
    return options;
  }

  /// The execution engine every bench routes its universe build and
  /// pipeline runs through; --threads 1 is the serial path.
  engine::Engine make_engine() const {
    engine::EngineOptions options;
    options.threads = static_cast<unsigned>(threads);
    return engine::Engine(options);
  }
};

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("%s\n", text); }

/// "paper X / measured Y" one-liner.
inline void compare(const char* label, const std::string& paper,
                    const std::string& measured) {
  std::printf("  %-44s paper: %-14s measured: %s\n", label, paper.c_str(),
              measured.c_str());
}

/// Assemble the cumulative hitlist by running the pipeline for
/// `days` daily cycles ending at the growth horizon. The returned
/// report borrows the pipeline's frame (last day's scan).
inline hitlist::Pipeline::DayReport run_pipeline_days(
    hitlist::Pipeline& pipeline, const BenchArgs& args) {
  hitlist::Pipeline::DayReport report;
  for (int i = args.days - 1; i >= 0; --i) {
    report = pipeline.run_day(args.horizon - i);
  }
  return report;
}

/// Write `content` to `path`, creating the parent directory when it
/// does not exist yet. Failure to write is fatal (nonzero exit) so a
/// bench run cannot silently drop its outputs.
inline void write_file(const std::string& path, const std::string& content) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "  could not create %s: %s\n",
                   target.parent_path().c_str(), ec.message().c_str());
      std::exit(1);
    }
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
    const bool flushed = std::fclose(f) == 0;
    if (written != content.size() || !flushed) {
      std::fprintf(stderr, "  could not write %s (short write)\n", path.c_str());
      std::exit(1);
    }
    std::printf("  wrote %s (%zu bytes)\n", path.c_str(), content.size());
  } else {
    std::fprintf(stderr, "  could not write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace v6h::bench
