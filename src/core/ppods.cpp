#include "core/ppods.hpp"

#include <algorithm>
#include <sstream>

#include "util/units.hpp"

namespace chase::wf {

PpodsSession::PpodsSession(kube::KubeCluster& kube, mon::Registry& metrics,
                           std::string ns, std::string name)
    : kube_(kube), metrics_(metrics), ns_(std::move(ns)), name_(std::move(name)) {
  if (!kube_.has_namespace(ns_)) kube_.create_namespace(ns_);
}

void PpodsSession::add_member(const std::string& user) {
  if (std::find(members_.begin(), members_.end(), user) == members_.end()) {
    members_.push_back(user);
  }
}

void PpodsSession::register_step(const std::string& step, const std::string& owner) {
  add_member(owner);
  for (auto& [name, existing_owner] : step_owners_) {
    if (name == step) {
      existing_owner = owner;
      return;
    }
  }
  step_owners_.emplace_back(step, owner);
}

std::string PpodsSession::owner_of(const std::string& step) const {
  for (const auto& [name, owner] : step_owners_) {
    if (name == step) return owner;
  }
  return "";
}

std::vector<std::string> PpodsSession::steps() const {
  std::vector<std::string> out;
  out.reserve(step_owners_.size());
  for (const auto& [name, owner] : step_owners_) out.push_back(name);
  return out;
}

void PpodsSession::add_expectation(const std::string& step, std::string description,
                                   std::function<bool(const StepReport&)> check) {
  expectations_.emplace_back(step,
                             StepExpectation{std::move(description), std::move(check)});
}

sim::EventPtr PpodsSession::run_trial(StepSpec spec, const std::string& notes) {
  // Each trial is its own single-step workflow: "each step can easily be
  // tested independently of one another".
  auto workflow = std::make_unique<Workflow>(kube_, metrics_, ns_,
                                             name_ + "/" + spec.name);
  Workflow* raw = workflow.get();
  trial_runs_.push_back(std::move(workflow));
  raw->add_step(spec);

  auto recorded = sim::make_event();
  auto runner = [](PpodsSession* self, Workflow* wf, std::string step,
                   std::string notes_text, sim::EventPtr done) -> sim::Task {
    co_await wf->execute();
    StepTrial trial;
    trial.step = step;
    trial.owner = self->owner_of(step);
    trial.notes = std::move(notes_text);
    trial.report = wf->reports().back();
    int count = 0;
    for (const auto& prior : self->trials_) count += prior.step == step;
    trial.number = count + 1;
    for (const auto& [expected_step, expectation] : self->expectations_) {
      if (expected_step == step && !expectation.check(trial.report)) {
        trial.failed_expectations.push_back(expectation.description);
      }
    }
    self->trials_.push_back(std::move(trial));
    done->trigger(self->kube_.sim());
  };
  kube_.sim().spawn(runner(this, raw, spec.name, notes, recorded));
  return recorded;
}

std::vector<const StepTrial*> PpodsSession::trials_of(const std::string& step) const {
  std::vector<const StepTrial*> out;
  for (const auto& trial : trials_) {
    if (trial.step == step) out.push_back(&trial);
  }
  return out;
}

double PpodsSession::improvement(const std::string& step) const {
  auto runs = trials_of(step);
  if (runs.size() < 2) return 1.0;
  const double first = runs.front()->report.duration();
  double best = first;
  for (const auto* trial : runs) best = std::min(best, trial->report.duration());
  return best > 0 ? first / best : 1.0;
}

std::string PpodsSession::render_board() const {
  util::Table table({"Step", "Owner", "Trials", "Best time", "Improvement", "Status"});
  for (const auto& [step, owner] : step_owners_) {
    auto runs = trials_of(step);
    std::string best = "-", status = "not run";
    if (!runs.empty()) {
      double best_time = runs.front()->report.duration();
      for (const auto* trial : runs) {
        best_time = std::min(best_time, trial->report.duration());
      }
      best = util::format_duration(best_time);
      const auto* last = runs.back();
      status = last->passed() ? "passing"
                              : "FAILING: " + last->failed_expectations.front();
    }
    table.add_row({step, owner, std::to_string(runs.size()), best,
                   std::string("x").append(util::format_double(improvement(step), 2)),
                   status});
  }
  return table.render("PPoDS session '" + name_ + "'");
}

}  // namespace chase::wf
