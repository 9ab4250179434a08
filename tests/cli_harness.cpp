// Harness binary for the ctest CLI-contract tests: parses BenchArgs
// exactly like every bench binary does and echoes the result, or
// exercises write_file for the directory-creation tests.

#include <cstring>

#include "bench_common.h"

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--test-write") == 0) {
      v6h::bench::write_file(argv[i + 1], "bench output probe\n");
      std::printf("write ok\n");
      return 0;
    }
  }
  const auto args = v6h::bench::BenchArgs::parse(argc, argv);
  std::printf(
      "scale=%g days=%d horizon=%d threads=%d out=%s protocols=%s "
      "budget=%lld retries=%d\n",
      args.scale, args.days, args.horizon, args.threads, args.out_dir.c_str(),
      v6h::scan::protocols_to_string(args.protocols).c_str(), args.probe_budget,
      args.retries);
  return 0;
}
