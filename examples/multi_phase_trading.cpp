// The paper's FUTURE-WORK model in action: a practical imprecise trading
// task with multiple mandatory parts (ref [33]), running on the RMWP-MP
// extension of RT-Seed.
//
//   segment 0 : fetch the quote                     (mandatory)
//   phase 0   : technical analysis, refined until OD⁰   (✂ anytime)
//   segment 1 : compute the preliminary risk budget  (mandatory)
//   phase 1   : Monte-Carlo position sizing until OD¹   (✂ anytime)
//   segment 2 : place the final order                (mandatory)
//
// Both optional phases are anytime refinements; the offline RMWP-MP
// analysis guarantees segments 1 and 2 always run to completion by the
// deadline no matter when the phases are cut.
//
// Build & run:  ./build/examples/multi_phase_trading
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "core/multi_phase_task.hpp"
#include "trading/market_feed.hpp"

using namespace rtseed;

namespace {

struct SharedState {
  double price = 0.0;
  std::atomic<double> ta_signal{0.0};      // phase 0 commit
  std::atomic<long> ta_levels{0};
  double risk_budget = 0.0;                // segment 1 output
  std::atomic<double> position_size{0.0};  // phase 1 commit
  std::atomic<long> mc_paths{0};
  long orders = 0;
  std::vector<double> history;
};

}  // namespace

int main() {
  trading::SyntheticFeed feed;
  SharedState state;
  state.history.reserve(4096);
  common::Rng mc_rng(41);

  core::MultiPhaseConfig config;
  config.params.name = "mp-trader";
  config.params.period = common::millis(100);
  config.params.mandatory = {common::millis(5), common::millis(5),
                             common::millis(5)};
  config.params.optional = {{common::millis(100)},   // phase 0: TA
                            {common::millis(100)}};  // phase 1: sizing
  config.num_jobs = 20;

  config.callbacks.mandatory = [&](const core::JobContext& ctx, int segment) {
    switch (segment) {
      case 0: {  // fetch
        state.price = feed.next(ctx.release).mid();
        state.history.push_back(state.price);
        state.ta_signal.store(0.0);
        state.ta_levels.store(0);
        state.position_size.store(0.0);
        state.mc_paths.store(0);
        break;
      }
      case 1: {  // risk budget from whatever TA committed
        const double signal = state.ta_signal.load();
        state.risk_budget = 1000.0 * std::abs(signal);
        break;
      }
      case 2: {  // final order from whatever sizing committed
        const double size = state.position_size.load();
        if (size > 1.0) ++state.orders;
        std::printf(
            "job %2ld: price=%.5f  TA signal=%+.3f (%ld levels)  "
            "size=%.1f (%ld MC paths)  %s\n",
            ctx.job, state.price, state.ta_signal.load(),
            state.ta_levels.load(), size, state.mc_paths.load(),
            size > 1.0 ? "ORDER" : "wait");
        break;
      }
      default:
        break;
    }
  };

  config.callbacks.optional = [&](const core::JobContext&, int phase,
                                  int /*part*/, core::StopToken& token) {
    if (phase == 0) {
      // Anytime technical analysis: widen the moving-average window.
      const auto n = static_cast<int>(state.history.size());
      for (int window = 4; window <= 256; window += 4) {
        if (token.should_stop() || window > n) break;
        double fast = 0.0, slow = 0.0;
        const int half = window / 2;
        for (int i = n - half; i < n; ++i) fast += state.history[i];
        for (int i = n - window; i < n; ++i) slow += state.history[i];
        fast /= half;
        slow /= window;
        const double signal =
            std::clamp((fast - slow) / (state.price * 1e-4), -1.0, 1.0);
        state.ta_signal.store(signal);
        state.ta_levels.fetch_add(1);
      }
    } else {
      // Anytime Monte-Carlo sizing within the risk budget.
      long paths = 0;
      double downside = 1e-9;
      for (;;) {
        if (token.should_stop()) break;
        for (int p = 0; p < 256; ++p) {
          const double shock = mc_rng.normal(0.0, 0.001);
          if (shock < 0) downside -= shock;
          ++paths;
        }
        const double avg_downside =
            downside / static_cast<double>(paths) * state.price;
        state.position_size.store(
            avg_downside > 0 ? state.risk_budget * 1e-4 / avg_downside : 0.0);
        state.mc_paths.store(paths);
      }
    }
  };

  auto placement = core::plan_single_multi_phase(config.params);
  if (!placement) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 placement.status().to_string().c_str());
    return 1;
  }
  std::printf("RMWP-MP plan: OD0 = %s, OD1 = %s after release (T = %s)\n\n",
              common::format_duration(placement->optional_deadline_offsets[0])
                  .c_str(),
              common::format_duration(placement->optional_deadline_offsets[1])
                  .c_str(),
              common::format_duration(config.params.period).c_str());

  const auto topology = common::Topology::native();
  core::MultiPhaseTask task(std::move(config), *placement, {}, topology);
  if (auto st = task.start(); !st) {
    std::fprintf(stderr, "start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  task.wait_finished();
  task.stop();

  long met = 0;
  const auto records = task.drain_records();
  for (const auto& rec : records) met += rec.deadline_met ? 1 : 0;
  std::printf("\n%zu jobs, %ld deadlines met, %ld orders placed, "
              "%ld callback errors\n",
              records.size(), met, state.orders, task.callback_errors());
  return met == static_cast<long>(records.size()) ? 0 : 1;
}
