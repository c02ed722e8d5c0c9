#include "checks.hpp"

#include <cmath>
#include <cstdio>

namespace chasebench {

namespace {
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}
}  // namespace

Problems check_connect(const ConnectOutcome& o) {
  Problems p;
  if (!o.finished) p.push_back("connect: workflow did not finish");
  if (o.steps != 4) p.push_back("connect: " + std::to_string(o.steps) + " step reports, want 4");
  if (o.files_fetched != o.files_expected) {
    p.push_back("connect: fetched " + std::to_string(o.files_fetched) + " files, want " +
                std::to_string(o.files_expected) + " (each exactly once)");
  }
  if (o.result_shards != static_cast<std::size_t>(o.inference_gpus)) {
    p.push_back("connect: " + std::to_string(o.result_shards) + " /results/ shards, want " +
                std::to_string(o.inference_gpus));
  }
  if (o.bands != nullptr) {
    for (int i = 0; i < 4 && i < o.steps; ++i) {
      const double s = o.step_sim_s[i];
      if (!(s >= o.bands[i].lo && s <= o.bands[i].hi)) {
        p.push_back("connect: step " + std::to_string(i + 1) + " took " + num(s) +
                    " sim s, outside [" + num(o.bands[i].lo) + ", " + num(o.bands[i].hi) + "]");
      }
    }
  }
  return p;
}

Problems check_replay(std::uint64_t first_hash, std::uint64_t replay_hash) {
  if (first_hash == replay_hash) return {};
  return {"replay: trace hash " + std::to_string(replay_hash) + " differs from " +
          std::to_string(first_hash)};
}

Problems check_ffn(const FfnOutcome& o, const FfnFloors& floors) {
  Problems p;
  if (!(o.final_loss <= floors.max_final_loss)) {
    p.push_back("ffn: final loss " + num(o.final_loss) + " above " + num(floors.max_final_loss));
  }
  if (!(o.iou >= floors.min_iou)) {
    p.push_back("ffn: IoU " + num(o.iou) + " below " + num(floors.min_iou));
  }
  return p;
}

Problems check_churn(const ChurnOutcome& o) {
  Problems p;
  if (o.issued != o.planned) {
    p.push_back("churn: issued " + std::to_string(o.issued) + " transfers, planned " +
                std::to_string(o.planned));
  }
  if (o.completed != o.issued) {
    p.push_back("churn: " + std::to_string(o.completed) + " of " + std::to_string(o.issued) +
                " transfers completed");
  }
  if (o.failed != 0) p.push_back("churn: " + std::to_string(o.failed) + " transfers failed");
  // The network settles bytes in floating point; allow rounding only.
  if (!(std::fabs(o.bytes_delivered - o.bytes_requested) <= 1e-9 * o.bytes_requested + 1.0)) {
    p.push_back("churn: delivered " + num(o.bytes_delivered) + " bytes, requested " +
                num(o.bytes_requested));
  }
  return p;
}

Problems check_federation(const FederationOutcome& o) {
  Problems p;
  int short_jobs = 0;
  for (std::size_t j = 0; j < o.succeeded.size(); ++j) {
    const bool done = j < o.complete.size() && o.complete[j];
    if (!done || o.succeeded[j] != o.completions) ++short_jobs;
  }
  if (o.succeeded.empty()) p.push_back("federation: no jobs ran");
  if (short_jobs > 0) {
    p.push_back("federation: " + std::to_string(short_jobs) + " jobs missed their " +
                std::to_string(o.completions) + " completions");
  }
  if (o.node_crashes != o.expected_node_crashes) {
    p.push_back("federation: " + std::to_string(o.node_crashes) + " node crashes fired, want " +
                std::to_string(o.expected_node_crashes));
  }
  if (o.site_partitions != o.expected_site_partitions) {
    p.push_back("federation: " + std::to_string(o.site_partitions) +
                " site partitions fired, want " + std::to_string(o.expected_site_partitions));
  }
  if (o.drains != o.expected_drains) {
    p.push_back("federation: " + std::to_string(o.drains) + " drains fired, want " +
                std::to_string(o.expected_drains));
  }
  return p;
}

}  // namespace chasebench
