#pragma once
/// \file trace.hpp
/// The traced mode's span recorder. Spans are recorded only from the
/// benchmark's own files, around its calls into each layer (`net.transfer`,
/// `kube.submit`, `ml.forward`, ...). Inside `Simulation::run` the benchmark
/// cannot wrap calls, so EventSplitter cuts the run's wall time into one
/// leaf interval per processed event (the gaps between consecutive
/// `Simulation::set_trace_hook` callbacks) and each workload names the layer
/// that owns each event from what it can observe.
///
/// Spans stay in memory (up to a cap; self times stay exact past it) and
/// are written out once, at the end of the run, as trace-event JSON.
/// Self time of a span is its duration minus the time its child spans
/// cover; the self-time table sums it per layer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace chasebench {

class Tracer {
 public:
  explicit Tracer(std::size_t max_spans = 50000);

  /// Nanoseconds since the tracer was created.
  std::int64_t now_ns() const;

  /// Open a span nested in the innermost open one. `name` must outlive the
  /// tracer (string literals); its layer is the text before the first '.',
  /// except that `wf.stepN` spans are layers of their own.
  void begin(const char* name, std::uint64_t op);
  /// Close the innermost open span.
  void end();

  /// Record an already-elapsed leaf interval [start, end) inside the
  /// innermost open span. `covered_ns` is the part of the interval that
  /// spans closed inside it already account for.
  void leaf(const char* name, std::int64_t start, std::int64_t end, std::int64_t covered_ns,
            std::uint64_t op);
  /// Child time the innermost open span has accumulated so far.
  std::int64_t open_child_ns() const;

  /// Self seconds per layer.
  std::map<std::string, double> layer_self_s() const;
  /// Render the per-layer self-time table (seconds and share of the total).
  std::string self_time_table() const;
  /// Write every stored span as trace-event JSON ("X" events, microseconds).
  bool write_json(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->begin(name, op);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

 private:
  struct Span {
    const char* name;
    std::int64_t start, end;
    std::int64_t id, parent;
    std::uint64_t op;
  };
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t slot;  // index into spans_, or -1 past the cap
    std::int64_t id;
    const char* name;
  };
  /// Keep `span` unless the cap is reached; returns whether it was kept.
  bool store(const Span& span);
  void add_self(const char* name, std::int64_t ns);

  Clock::time_point epoch_;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<const char*, std::int64_t> self_ns_;  // keyed by name literal
  std::int64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Splits one `Simulation::run` call into per-event leaf intervals. Call
/// start() just before run(), boundary() from the simulation's trace hook
/// (it closes the previous event's interval under the layer the caller
/// names), and finish() once run() returns.
class EventSplitter {
 public:
  EventSplitter(Tracer& tracer, std::uint64_t op) : tracer_(tracer), op_(op) {}

  void start();
  void boundary(const char* layer_of_previous_event);
  void finish(const char* layer_of_previous_event);

  /// Wall gap of every closed event interval, microseconds.
  const std::vector<float>& gaps_us() const { return gaps_us_; }

 private:
  Tracer& tracer_;
  std::uint64_t op_;
  bool open_ = false;
  std::int64_t prev_ = 0;
  std::int64_t child_mark_ = 0;
  std::vector<float> gaps_us_;
};

}  // namespace chasebench
