#include "trace.hpp"

#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace chasebench {

namespace {

/// Layer of a span name: "net.transfer" -> "net", "wf.step1" -> "wf.step1".
std::string layer_of(const char* name) {
  if (std::strncmp(name, "wf.step", 7) == 0) return name;
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

Tracer::Tracer(std::size_t max_spans) : epoch_(Clock::now()), max_spans_(max_spans) {
  spans_.reserve(std::min<std::size_t>(max_spans_, 4096));
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

void Tracer::begin(const char* name, std::uint64_t op) {
  const std::int64_t t = now_ns();
  const std::int64_t id = next_id_++;
  // Stored when opened, so an op's enclosing spans survive the cap even
  // when its children fill it.
  const std::int64_t slot = static_cast<std::int64_t>(spans_.size());
  const bool stored = store({name, t, t, id, stack_.empty() ? -1 : stack_.back().id, op});
  stack_.push_back({t, 0, stored ? slot : -1, id, name});
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  add_self(o.name, dur - o.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.slot >= 0) spans_[static_cast<std::size_t>(o.slot)].end = t;
}

void Tracer::leaf(const char* name, std::int64_t start, std::int64_t end,
                  std::int64_t covered_ns, std::uint64_t op) {
  const std::int64_t self = (end - start) - covered_ns;
  add_self(name, self);
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += self;
  // Coalesce back-to-back leaves of one layer into one stored span.
  if (!spans_.empty()) {
    Span& last = spans_.back();
    if (last.name == name && last.parent == parent && last.end == start && last.op == op) {
      last.end = end;
      return;
    }
  }
  store({name, start, end, next_id_++, parent, op});
}

std::int64_t Tracer::open_child_ns() const {
  return stack_.empty() ? 0 : stack_.back().child_ns;
}

bool Tracer::store(const Span& span) {
  if (spans_.size() < max_spans_) {
    spans_.push_back(span);
    return true;
  }
  ++dropped_;
  return false;
}

void Tracer::add_self(const char* name, std::int64_t ns) { self_ns_[name] += ns; }

std::map<std::string, double> Tracer::layer_self_s() const {
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns_) out[layer_of(name)] += static_cast<double>(ns) * 1e-9;
  return out;
}

std::string Tracer::self_time_table() const {
  const auto layers = layer_self_s();
  double total = 0.0;
  for (const auto& [layer, s] : layers) total += s;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, s] : layers) rows.emplace_back(s, layer);
  std::sort(rows.rbegin(), rows.rend());
  std::string out = "layer            self_s      share\n";
  char line[128];
  for (const auto& [s, layer] : rows) {
    std::snprintf(line, sizeof line, "%-14s %10.4f %9.1f%%\n", layer.c_str(), s,
                  total > 0.0 ? 100.0 * s / total : 0.0);
    out += line;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
                 "\"op\": %llu}}%s\n",
                 s.name, layer_of(s.name).c_str(), static_cast<double>(s.start) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"otherData\": {\"dropped_spans\": %llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

void EventSplitter::start() {
  open_ = false;
  prev_ = tracer_.now_ns();
  child_mark_ = tracer_.open_child_ns();
}

void EventSplitter::boundary(const char* layer_of_previous_event) {
  const std::int64_t t = tracer_.now_ns();
  if (open_) {
    const std::int64_t child_now = tracer_.open_child_ns();
    tracer_.leaf(layer_of_previous_event, prev_, t, child_now - child_mark_, op_);
    gaps_us_.push_back(static_cast<float>(static_cast<double>(t - prev_) * 1e-3));
  }
  open_ = true;
  prev_ = t;
  child_mark_ = tracer_.open_child_ns();
}

void EventSplitter::finish(const char* layer_of_previous_event) {
  if (open_) boundary(layer_of_previous_event);
  open_ = false;
}

void LayerStats::add_event_gaps(const std::vector<float>& gaps_us) {
  constexpr std::size_t kMaxGaps = 1'000'000;
  for (float g : gaps_us) {
    if (event_us.size() >= kMaxGaps) return;
    event_us.push_back(g);
  }
}

void add_layer_metrics(RunResult& r, const LayerStats& s, const Tracer& tracer,
                       const std::vector<double>& untraced_op_s,
                       const std::vector<double>& traced_op_s) {
  r.add("sim.events", median(s.events), "count");
  r.add("sim.run_s", median(s.run_s), "s");
  r.add("sim.event_us.p50", percentile(s.event_us, 0.5), "us");
  r.add("sim.event_us.p99", percentile(s.event_us, 0.99), "us");

  r.add("net.transfers", s.transfers, "count");
  r.add("net.failed_transfers", s.failed_transfers, "count");
  r.add("net.transfer_us.p50", percentile(s.transfer_us, 0.5), "us");
  r.add("net.transfer_us.p99", percentile(s.transfer_us, 0.99), "us");
  r.add("net.bytes_delivered", s.bytes_delivered, "bytes");
  r.add("net.active_flows.mean", s.flow_samples > 0 ? s.flow_sum / s.flow_samples : 0.0,
        "flows");
  r.add("net.active_flows.max", s.flow_max, "flows");

  r.add("kube.submit_us.p50", percentile(s.submit_us, 0.5), "us");
  r.add("kube.drain_us.p50", percentile(s.drain_us, 0.5), "us");
  r.add("kube.pods_scheduled", s.pods_scheduled, "count");
  r.add("kube.evictions", s.evictions, "count");
  r.add("kube.pending_sim_s.p50", percentile(s.pending_sim_s, 0.5), "s");
  r.add("kube.pending_sim_s.p90", percentile(s.pending_sim_s, 0.9), "s");

  r.add("thredds.requests", s.thredds_requests, "count");
  r.add("thredds.bytes_served", s.thredds_bytes, "bytes");
  r.add("thredds.queue.max", s.thredds_queue_max, "requests");
  r.add("redis.redeliveries", s.redis_redeliveries, "count");
  r.add("redis.requeues", s.redis_requeues, "count");
  r.add("ceph.bytes_written", s.ceph_written, "bytes");
  r.add("ceph.bytes_read", s.ceph_read, "bytes");

  static const char* const kStepWall[4] = {"wf.step1.wall_s", "wf.step2.wall_s",
                                           "wf.step3.wall_s", "wf.step4.wall_s"};
  static const char* const kStepSim[4] = {"wf.step1.sim_s", "wf.step2.sim_s",
                                          "wf.step3.sim_s", "wf.step4.sim_s"};
  for (int i = 0; i < 4; ++i) r.add(kStepWall[i], median(s.step_wall_s[i]), "s");
  for (int i = 0; i < 4; ++i) r.add(kStepSim[i], s.step_sim_s[i], "s");

  r.add("ml.example_ms.p50", percentile(s.example_ms, 0.5), "ms");
  r.add("ml.forward_ms.p50", percentile(s.forward_ms, 0.5), "ms");
  r.add("ml.forward_ms.p90", percentile(s.forward_ms, 0.9), "ms");
  r.add("ml.loss_ms.p50", percentile(s.loss_ms, 0.5), "ms");
  r.add("ml.backward_ms.p50", percentile(s.backward_ms, 0.5), "ms");
  r.add("ml.backward_ms.p90", percentile(s.backward_ms, 0.9), "ms");
  r.add("ml.optimizer_ms.p50", percentile(s.optimizer_ms, 0.5), "ms");
  r.add("ml.forward_gflops", s.forward_gflops, "GFLOP/s");
  r.add("ml.infer_s", s.infer_s, "s");
  r.add("ml.infer_fov_moves", s.infer_fov_moves, "count");
  r.add("ml.connect_label_ms", s.connect_label_ms, "ms");

  r.add("chaos.node_crashes", s.node_crashes, "count");
  r.add("chaos.site_partitions", s.site_partitions, "count");

  // Self-time shares of the traced ops, one per layer the benchmark names.
  const auto self = tracer.layer_self_s();
  double total = 0.0;
  for (const auto& [layer, sec] : self) total += sec;
  static const char* const kLayers[] = {"bench", "setup", "sim",      "net",      "kube",
                                        "chaos", "ml",    "wf.step1", "wf.step2", "wf.step3",
                                        "wf.step4", "wf"};
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double sec = it == self.end() ? 0.0 : it->second;
    r.add(std::string("self_share.") + layer, total > 0.0 ? sec / total : 0.0, "share");
  }
  const double untraced = median(untraced_op_s);
  r.add("trace.overhead", untraced > 0.0 ? median(traced_op_s) / untraced : 0.0, "ratio");
}

}  // namespace chasebench
