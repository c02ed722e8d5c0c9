#include "core/workflow.hpp"

#include "util/units.hpp"

namespace chase::wf {

kube::KubeCluster& StepContext::kube() const { return workflow_.kube_; }
sim::Simulation& StepContext::sim() const { return workflow_.kube_.sim(); }
const std::string& StepContext::ns() const { return workflow_.ns_; }

void StepContext::add_data(double bytes) { data_bytes_ += bytes; }

void StepContext::add_retries(int n) { retries_ += n; }

Workflow::Workflow(kube::KubeCluster& kube, mon::Registry& metrics, std::string ns,
                   std::string name)
    : kube_(kube), metrics_(metrics), ns_(std::move(ns)), name_(std::move(name)) {}

void Workflow::add_step(StepSpec spec) { steps_.push_back(std::move(spec)); }

sim::Task Workflow::execute() {
  for (const auto& spec : steps_) {
    StepContext ctx(*this, spec.label);
    const double start = kube_.sim().now();
    co_await spec.run(&ctx);
    const double end = kube_.sim().now();
    reports_.push_back(measure_step(spec, ctx, start, end));
    metrics_.record("workflow_step_retries",
                    {{"workflow", name_}, {"step", spec.label}}, end,
                    static_cast<double>(ctx.retries_));
  }
  finished_ = true;
}

sim::EventPtr Workflow::start(sim::Simulation& sim) {
  auto done = sim::make_event();
  auto runner = [](Workflow* self, sim::EventPtr ev) -> sim::Task {
    co_await self->execute();
    ev->trigger(self->kube_.sim());
  };
  sim.spawn(runner(this, done));
  return done;
}

StepReport Workflow::measure_step(const StepSpec& spec, const StepContext& ctx,
                                  double start, double end) const {
  StepReport report;
  report.name = spec.name;
  report.start_time = start;
  report.end_time = end;
  report.data_bytes = ctx.data_bytes_;
  report.retries = ctx.retries_;

  // Resource attribution: every pod the step created carries step=<label>.
  for (const auto& pod : kube_.list_pods(ns_, {{"step", spec.label}})) {
    if (pod->created_at > end || pod->created_at < start) continue;
    // Controllers may retry pods (NodeLost); count distinct concurrent
    // resources via requests of pods that actually ran.
    if (pod->started_at < 0) continue;
    report.pods += 1;
    const auto requests = pod->requests();
    report.cpus += requests.cpu;
    report.gpus += requests.gpus;
  }
  report.peak_memory_bytes =
      metrics_.max_sum("pod_memory_bytes", {{"step", spec.label}});
  return report;
}

std::string Workflow::summary_table() const {
  util::Table table({"", "Step 1", "Step 2", "Step 3", "Step 4"});
  // Render in the paper's transposed layout when there are exactly 4 steps;
  // otherwise fall back to one row per step.
  if (reports_.size() == 4) {
    auto row = [&](const std::string& title,
                   const std::function<std::string(const StepReport&)>& cell) {
      std::vector<std::string> cells{title};
      for (const auto& r : reports_) cells.push_back(cell(r));
      table.add_row(std::move(cells));
    };
    row("# of Pods", [](const StepReport& r) { return std::to_string(r.pods); });
    row("# of CPUs", [](const StepReport& r) {
      return std::to_string(static_cast<int>(r.cpus));
    });
    row("# of GPUs", [](const StepReport& r) { return std::to_string(r.gpus); });
    row("Data Processed",
        [](const StepReport& r) { return util::format_bytes(r.data_bytes); });
    row("Memory", [](const StepReport& r) {
      return util::format_bytes(r.peak_memory_bytes);
    });
    row("Total Time",
        [](const StepReport& r) { return util::format_duration(r.duration()); });
    return table.render(name_ + " resource summary (Table I layout)");
  }
  util::Table flat({"Step", "Pods", "CPUs", "GPUs", "Data", "Peak mem", "Time"});
  for (const auto& r : reports_) {
    flat.add_row({r.name, std::to_string(r.pods),
                  std::to_string(static_cast<int>(r.cpus)), std::to_string(r.gpus),
                  util::format_bytes(r.data_bytes),
                  util::format_bytes(r.peak_memory_bytes),
                  util::format_duration(r.duration())});
  }
  return flat.render(name_ + " step summary");
}

std::string Workflow::export_kepler() const {
  // Kepler workflows are MoML documents: entities (actors) joined by
  // relations; each of our steps becomes an actor in a sequential chain,
  // annotated with its measured properties when the step has run.
  std::string xml;
  xml += "<?xml version=\"1.0\"?>\n";
  xml += "<entity name=\"" + name_ + "\" class=\"ptolemy.actor.TypedCompositeActor\">\n";
  xml += "  <property name=\"namespace\" value=\"" + ns_ + "\"/>\n";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const auto& step = steps_[i];
    xml += "  <entity name=\"" + step.name +
           "\" class=\"org.chaseci.workflow.KubernetesStep\">\n";
    xml += "    <property name=\"stepLabel\" value=\"" + step.label + "\"/>\n";
    if (i < reports_.size()) {
      const auto& r = reports_[i];
      xml += "    <property name=\"measured.pods\" value=\"" +
             std::to_string(r.pods) + "\"/>\n";
      xml += "    <property name=\"measured.gpus\" value=\"" +
             std::to_string(r.gpus) + "\"/>\n";
      xml += "    <property name=\"measured.duration\" value=\"" +
             util::format_duration(r.duration()) + "\"/>\n";
      xml += "    <property name=\"measured.data\" value=\"" +
             util::format_bytes(r.data_bytes) + "\"/>\n";
    }
    xml += "  </entity>\n";
  }
  for (std::size_t i = 0; i + 1 < steps_.size(); ++i) {
    xml += "  <relation name=\"r" + std::to_string(i) + "\"/>\n";
    xml += "  <link port=\"" + steps_[i].name + ".output\" relation=\"r" +
           std::to_string(i) + "\"/>\n";
    xml += "  <link port=\"" + steps_[i + 1].name + ".input\" relation=\"r" +
           std::to_string(i) + "\"/>\n";
  }
  xml += "</entity>\n";
  return xml;
}

}  // namespace chase::wf
