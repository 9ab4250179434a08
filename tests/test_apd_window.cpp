// Unit tests for the Table-4 sliding-window smoothing: flicker
// suppression, the window_days = 0 and 63 edges, a prefix aging out
// of the aliased set, and the shift register against a brute-force
// window over every length 0..63 — first on SlidingVerdict, then
// end-to-end through AliasDetector on a simulated universe, including
// the per-day verdict transition lists.

#include <algorithm>
#include <deque>
#include <iterator>
#include <vector>

#include "apd/apd.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "test_main.h"
#include "util/rng.h"

using namespace v6h;
using apd::SlidingVerdict;

namespace {

// Feed a raw daily outcome sequence; returns the number of verdict
// flips and leaves the final verdict in *out_verdict.
unsigned feed(SlidingVerdict& window, const std::vector<bool>& days,
              bool* out_verdict) {
  unsigned flips = 0;
  for (const bool day : days) flips += window.update(day);
  *out_verdict = window.verdict();
  return flips;
}

void run_tests() {
  // window_days = 0: the verdict is today's raw outcome, every change
  // is a flip (the paper's unstable 65-prefix baseline).
  {
    SlidingVerdict window(0);
    CHECK(!window.has_verdict());
    bool verdict = false;
    const unsigned flips = feed(window, {true, false, true, false}, &verdict);
    CHECK(window.has_verdict());
    CHECK_EQ(flips, 3u);
    CHECK(!verdict);
  }

  // Flicker suppression: with a 3-day window, isolated rate-limited
  // days (raw false) inside an aliased streak never flip the verdict.
  {
    SlidingVerdict window(3);
    bool verdict = false;
    const unsigned flips = feed(
        window, {true, false, true, false, false, true, false, false, false},
        &verdict);
    CHECK_EQ(flips, 0u);
    CHECK(verdict);  // still inside the window of the last true day
  }

  // Aging out: after the last aliased day, the verdict survives
  // exactly window_days quiet days and drops on day window_days + 1,
  // counting a single flip.
  {
    SlidingVerdict window(3);
    bool verdict = false;
    unsigned flips = feed(window, {true, false, false, false}, &verdict);
    CHECK_EQ(flips, 0u);
    CHECK(verdict);  // day 3: the true day is still in the 4-slot window
    flips += window.update(false);  // day 4: aged out
    CHECK_EQ(flips, 1u);
    CHECK(!window.verdict());
    // Re-detection flips it back exactly once.
    flips += window.update(true);
    CHECK_EQ(flips, 2u);
    CHECK(window.verdict());
  }

  // The widest window, 63 days: all 64 register bits are live, and a
  // single aliased day survives exactly 63 quiet days.
  {
    constexpr unsigned kWidest = SlidingVerdict::kMaxWindowDays;
    SlidingVerdict window(kWidest);
    unsigned flips = window.update(true);
    for (unsigned day = 1; day <= kWidest; ++day) {
      flips += window.update(false);
      CHECK(window.verdict());  // the true day is still inside
    }
    CHECK_EQ(flips, 0u);
    CHECK(window.update(false));  // day kWidest + 1: aged out
    CHECK(!window.verdict());
    // And re-detection after the long quiet stretch flips back once.
    CHECK(window.update(true));
    CHECK(window.verdict());
  }

  // Brute force: every window length 0..63 against a deque of the
  // last window_days + 1 outcomes over seeded random ~200-day
  // sequences. The reference verdict is "any outcome aliased"; a flip
  // is a verdict change after the first update. Aliased days come in
  // three densities so both long quiet stretches and long aliased
  // streaks occur.
  {
    util::Rng rng(63);
    std::size_t mismatches = 0;
    std::size_t reference_flips = 0;
    for (unsigned window_days = 0; window_days <= SlidingVerdict::kMaxWindowDays;
         ++window_days) {
      for (const double aliased_share : {0.02, 0.3, 0.9}) {
        SlidingVerdict window(window_days);
        std::deque<bool> last;
        bool has_verdict = false;
        bool verdict = false;
        const std::size_t days = 180 + rng.uniform(40);
        for (std::size_t day = 0; day < days; ++day) {
          const bool today = rng.uniform_real() < aliased_share;
          last.push_back(today);
          if (last.size() > window_days + 1) last.pop_front();
          const bool expected =
              std::find(last.begin(), last.end(), true) != last.end();
          const bool expected_flip = has_verdict && expected != verdict;
          has_verdict = true;
          verdict = expected;
          reference_flips += expected_flip;
          const bool flipped = window.update(today);
          mismatches += flipped != expected_flip ||
                        window.verdict() != expected || !window.has_verdict();
        }
      }
    }
    CHECK_EQ(mismatches, 0u);
    CHECK(reference_flips > 0);  // the sequences did flip verdicts
  }

  // A fresh window has no verdict to flip: the first update never
  // counts, whatever it reports.
  {
    SlidingVerdict window(2);
    CHECK(!window.update(true));
    CHECK(window.verdict());
  }

  // End-to-end through AliasDetector: probing the universe's aliased
  // zone prefixes daily, a 3-day window must leave no more unstable
  // prefixes than the raw day-by-day verdict (Table 4's reduction),
  // and a window-0 detector must flag at least as many.
  {
    netsim::UniverseParams params;
    params.scale = 0.3;
    params.tail_as_count = 300;
    const netsim::Universe universe(params);
    std::vector<ipv6::Prefix> prefixes;
    for (const auto& zone : universe.zones()) {
      if (zone.aliased()) prefixes.push_back(zone.prefix());
    }
    CHECK(!prefixes.empty());

    unsigned unstable_by_window[2] = {0, 0};
    const unsigned windows[2] = {0, 3};
    for (int w = 0; w < 2; ++w) {
      netsim::NetworkSim sim(universe);
      apd::ApdOptions options;
      options.window_days = windows[w];
      apd::AliasDetector detector(sim, options);
      detector.admit(prefixes);
      // Each day's transition lists equal the change in
      // current_aliased() across the call, ascending. The lists are
      // reused, and day 0 fills became_aliased, so later days also
      // check that they come back cleared rather than appended to.
      std::vector<ipv6::Prefix> became_aliased, became_clean;
      std::size_t transition_mismatches = 0;
      for (int day = 0; day < 10; ++day) {
        const std::vector<ipv6::Prefix> before = detector.current_aliased();
        detector.run_day(day, &became_aliased, &became_clean);
        const std::vector<ipv6::Prefix> after = detector.current_aliased();
        std::vector<ipv6::Prefix> added, dropped;
        std::set_difference(after.begin(), after.end(), before.begin(),
                            before.end(), std::back_inserter(added));
        std::set_difference(before.begin(), before.end(), after.begin(),
                            after.end(), std::back_inserter(dropped));
        transition_mismatches +=
            became_aliased != added || became_clean != dropped;
      }
      CHECK_EQ(transition_mismatches, 0u);
      for (const auto& [prefix, flips] : detector.verdict_flips()) {
        unstable_by_window[w] += flips > 0;
      }
      // Every truly aliased zone prefix should currently be flagged:
      // the window only ever widens the aliased set.
      CHECK(detector.current_aliased().size() <= prefixes.size());
    }
    CHECK(unstable_by_window[1] <= unstable_by_window[0]);
    CHECK(unstable_by_window[0] > 0);  // lossy zones do flicker raw

    // Every run_day probes every candidate, and lists handed in
    // non-empty come back cleared: with no candidates they stay empty,
    // and on a fresh detector's first day they hold every aliased
    // verdict. Admitting the same prefixes again adds no candidate and
    // keeps every verdict.
    netsim::NetworkSim sim(universe);
    apd::AliasDetector detector(sim, {});
    std::vector<ipv6::Prefix> became_aliased(3), became_clean(2);
    detector.run_day(0, &became_aliased, &became_clean);
    CHECK(became_aliased.empty());
    CHECK(became_clean.empty());
    detector.admit(prefixes);
    const std::size_t admitted = detector.candidates().size();
    became_aliased.resize(3);
    became_clean.resize(2);
    detector.run_day(0, &became_aliased, &became_clean);
    const auto flagged = detector.current_aliased();
    CHECK(!flagged.empty());
    CHECK(became_aliased == flagged);  // a fresh detector: all new
    CHECK(became_clean.empty());
    detector.admit(prefixes);
    CHECK_EQ(detector.candidates().size(), admitted);
    CHECK(detector.current_aliased() == flagged);
  }
}

}  // namespace

TEST_MAIN()
