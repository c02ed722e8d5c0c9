#include "mon/metrics.hpp"

#include <algorithm>

#include "util/csv.hpp"
#include "util/units.hpp"

namespace chase::mon {

double TimeSeries::max_over_time() const {
  double m = 0.0;
  bool first = true;
  for (auto [t, v] : samples_) {
    m = first ? v : std::max(m, v);
    first = false;
  }
  return m;
}

double TimeSeries::value_at(double t) const {
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](double lhs, const std::pair<double, double>& s) { return lhs < s.first; });
  if (it == samples_.begin()) return 0.0;
  return std::prev(it)->second;
}

void Registry::register_probe(std::string name, Labels labels,
                              std::function<double()> fn) {
  probes_.push_back(Probe{SeriesKey{std::move(name), std::move(labels)}, std::move(fn)});
}

void Registry::unregister_probe(const std::string& name, const Labels& labels) {
  const SeriesKey key{name, labels};
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [&](const Probe& p) {
                                 return !(p.key < key) && !(key < p.key);
                               }),
                probes_.end());
}

void Registry::record(const std::string& name, const Labels& labels, double t,
                      double v) {
  series(name, labels).append(t, v);
}

TimeSeries& Registry::series(const std::string& name, const Labels& labels) {
  return series_[SeriesKey{name, labels}];
}

const TimeSeries* Registry::find(const std::string& name, const Labels& labels) const {
  auto it = series_.find(SeriesKey{name, labels});
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::pair<SeriesKey, const TimeSeries*>> Registry::select(
    const std::string& name, const Labels& selector) const {
  std::vector<std::pair<SeriesKey, const TimeSeries*>> out;
  out.reserve(series_.size());
  for (const auto& [key, ts] : series_) {
    if (key.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : selector) {
      auto it = key.labels.find(k);
      if (it == key.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) out.emplace_back(key, &ts);
  }
  return out;
}

double Registry::sum_at(const std::string& name, const Labels& selector,
                        double t) const {
  double s = 0.0;
  for (const auto& [key, ts] : select(name, selector)) s += ts->value_at(t);
  return s;
}

double Registry::max_sum(const std::string& name, const Labels& selector) const {
  // A k-way merge over the time-sorted series: each step takes the next
  // sample time t of any series, moves every cursor past its samples at or
  // before t, and sums each series' last value so far (0 before its first
  // sample) in select() order -- the additions sum_at(t) makes.
  const auto sel = select(name, selector);
  struct Cursor {
    const std::vector<std::pair<double, double>>* samples;
    std::size_t next;
    double value;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(sel.size());
  for (const auto& [key, ts] : sel) cursors.push_back(Cursor{&ts->samples(), 0, 0.0});
  double best = 0.0;
  while (true) {
    bool any = false;
    double t = 0.0;
    for (const Cursor& c : cursors) {
      if (c.next == c.samples->size()) continue;
      const double ct = (*c.samples)[c.next].first;
      if (!any || ct < t) t = ct;
      any = true;
    }
    if (!any) return best;
    double s = 0.0;
    for (Cursor& c : cursors) {
      const auto& samples = *c.samples;
      while (c.next < samples.size() && !(t < samples[c.next].first)) {
        c.value = samples[c.next].second;
        ++c.next;
      }
      s += c.value;
    }
    best = std::max(best, s);
  }
}

void Registry::start_sampler(sim::Simulation& sim, double period, sim::EventPtr stop) {
  auto loop = [](Registry* self, sim::Simulation* s, double p,
                 sim::EventPtr halt) -> sim::Task {
    while (true) {
      self->sample_now(s->now());
      if (halt->fired()) co_return;
      co_await s->sleep(p);
    }
  };
  sim.spawn(loop(this, &sim, period, std::move(stop)));
}

void Registry::sample_now(double t) {
  for (auto& probe : probes_) {
    if (probe.series == nullptr) probe.series = &series_[probe.key];
    probe.series->append(t, probe.fn());
  }
}

std::string key_to_string(const SeriesKey& key) {
  std::string s = key.name;
  if (!key.labels.empty()) {
    s += "{";
    bool first = true;
    for (const auto& [k, v] : key.labels) {
      if (!first) s += ",";
      s += k + "=" + v;
      first = false;
    }
    s += "}";
  }
  return s;
}

std::string Registry::chart(const std::string& title, const std::string& value_label,
                            const std::string& name, const Labels& selector,
                            double scale) const {
  util::AsciiChart chart;
  for (const auto& [key, ts] : select(name, selector)) {
    util::Series s;
    s.name = key_to_string(key);
    for (auto [t, v] : ts->samples()) s.points.emplace_back(t, v * scale);
    chart.add_series(std::move(s));
  }
  return chart.render(title, value_label);
}

void Registry::export_csv(const std::string& path, const std::string& name,
                          const Labels& selector) const {
  util::CsvWriter csv(path, {"series", "time_s", "value"});
  for (const auto& [key, ts] : select(name, selector)) {
    const std::string label = key_to_string(key);
    for (auto [t, v] : ts->samples()) {
      csv.add_row(std::vector<std::string>{label, util::format_double(t, 3),
                                           util::format_double(v, 6)});
    }
  }
}

}  // namespace chase::mon
