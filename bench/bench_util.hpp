#pragma once
/// \file bench_util.hpp
/// Shared helpers for the reproduction benches: run a workflow with the
/// metric sampler attached, and print paper-vs-measured comparison rows.

#include <cstdio>
#include <string>

#include "core/connect_workflow.hpp"
#include "core/nautilus.hpp"
#include "sim/event.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace chase::bench {

/// Drive the simulation until the workflow finishes, sampling metrics every
/// `sample_period` simulated seconds. Returns simulated completion time.
inline double run_workflow(core::Nautilus& bed, wf::Workflow& wf,
                           double sample_period = 30.0) {
  auto stop = sim::make_event();
  bed.metrics.start_sampler(bed.sim, sample_period, stop);
  auto done = wf.start(bed.sim);
  sim::run_until(bed.sim, done);
  stop->trigger(bed.sim);
  bed.sim.run(bed.sim.now() + 2 * sample_period);  // drain the sampler
  return bed.sim.now();
}

/// One "paper vs measured" comparison row.
struct Comparison {
  std::string metric;
  std::string paper;
  std::string measured;
  std::string note;
};

inline void print_comparison(const std::string& title,
                             const std::vector<Comparison>& rows) {
  util::Table table({"Metric", "Paper", "Measured (sim)", "Note"});
  for (const auto& row : rows) {
    table.add_row({row.metric, row.paper, row.measured, row.note});
  }
  std::fputs(table.render(title).c_str(), stdout);
}

/// "x1.23": a ratio to two decimals. Built with append, not "x" + string:
/// GCC 12 at -O3 raises a false -Werror=restrict on the operator+ form.
inline std::string times(double ratio) {
  return std::string("x").append(util::format_double(ratio, 2));
}

inline std::string ratio_note(double measured, double paper) {
  if (paper == 0) return "";
  return times(measured / paper).append(" of paper");
}

inline std::string minutes(double seconds) {
  return util::format_double(seconds / 60.0, 1) + "m";
}

}  // namespace chase::bench
