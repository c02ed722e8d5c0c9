#pragma once
/// \file metrics.hpp
/// The Prometheus/Grafana substitute (paper §II-A, Figures 3–6): a metric
/// registry with labelled time series, pull-style probes sampled on a fixed
/// period by a simulation process, push-style counters/gauges, and the query
/// functions (max over time, sums across series) the benchmark reports use
/// to regenerate the paper's dashboard panels.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/simulation.hpp"
#include "util/chart.hpp"

namespace chase::mon {

using Labels = std::map<std::string, std::string>;

struct SeriesKey {
  std::string name;
  Labels labels;
  bool operator<(const SeriesKey& o) const {
    if (name != o.name) return name < o.name;
    return labels < o.labels;
  }
};

/// One metric's samples, ordered by time.
class TimeSeries {
 public:
  void append(double t, double v) { samples_.emplace_back(t, v); }
  const std::vector<std::pair<double, double>>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  double last() const { return samples_.empty() ? 0.0 : samples_.back().second; }
  double max_over_time() const;
  /// Value at or before `t` (step interpolation); 0 before first sample.
  double value_at(double t) const;

 private:
  std::vector<std::pair<double, double>> samples_;
};

class Registry {
 public:
  Registry() = default;
  // Probes hold pointers into this registry's series map: a copy would
  // append to the original's series.
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register a pull-style probe: sampled every period by the sampler task.
  /// Its series is created at the probe's first sample, not here.
  void register_probe(std::string name, Labels labels, std::function<double()> fn);
  /// Drop a probe (e.g. when a pod terminates). Its recorded series remains.
  void unregister_probe(const std::string& name, const Labels& labels);

  /// Push a sample directly (event-style metrics).
  void record(const std::string& name, const Labels& labels, double t, double v);

  /// Get (or create) a series.
  TimeSeries& series(const std::string& name, const Labels& labels = {});
  const TimeSeries* find(const std::string& name, const Labels& labels = {}) const;

  /// All series whose metric name matches and whose labels contain `selector`.
  std::vector<std::pair<SeriesKey, const TimeSeries*>> select(
      const std::string& name, const Labels& selector = {}) const;

  /// Sum across selected series evaluated at time t.
  double sum_at(const std::string& name, const Labels& selector, double t) const;
  /// Max over time of the per-timestamp sum across selected series: the max
  /// of sum_at(t) over every sample time t of the selected series (0 when
  /// none). Assumes each series is time-sorted, as every append happens at
  /// the current sim time.
  double max_sum(const std::string& name, const Labels& selector) const;

  /// Spawn a process sampling all probes every `period` seconds until `stop`
  /// fires (sampling once more after it fires, then exiting).
  void start_sampler(sim::Simulation& sim, double period, sim::EventPtr stop);

  /// Take one sample of every probe right now.
  void sample_now(double t);

  /// Render selected series as an ASCII chart (the "Grafana panel").
  std::string chart(const std::string& title, const std::string& value_label,
                    const std::string& name, const Labels& selector = {},
                    double scale = 1.0) const;

  /// Export selected series to CSV at `path` (long format:
  /// series,time,value).
  void export_csv(const std::string& path, const std::string& name,
                  const Labels& selector = {}) const;

 private:
  struct Probe {
    SeriesKey key;
    std::function<double()> fn;
    // Resolved at the first sample; map nodes never move and series are
    // never erased, so the handle stays valid for the registry's life.
    TimeSeries* series = nullptr;
  };
  std::map<SeriesKey, TimeSeries> series_;
  std::vector<Probe> probes_;
};

/// Format a series key as name{k=v,...} for legends.
std::string key_to_string(const SeriesKey& key);

}  // namespace chase::mon
