#include "thredds/server.hpp"

#include <algorithm>

namespace chase::thredds {

ThreddsServer::ThreddsServer(sim::Simulation& sim, net::Network& net, net::NodeId node,
                             Options options)
    : sim_(sim), net_(net), node_(node), options_(options),
      slots_(std::make_unique<sim::Semaphore>(options.extraction_slots)) {}

void ThreddsServer::add_dataset(Dataset ds) { datasets_.push_back(std::move(ds)); }

const Dataset* ThreddsServer::dataset(const std::string& name) const {
  for (const auto& ds : datasets_) {
    if (ds.name == name) return &ds;
  }
  return nullptr;
}

sim::Task ThreddsServer::fetch(net::NodeId client, std::string dataset_name,
                               std::size_t file_index, std::string variable,
                               bool* ok, Bytes* bytes) {
  if (ok != nullptr) *ok = false;
  const Dataset* ds = dataset(dataset_name);
  if (ds == nullptr || file_index >= ds->file_count) co_return;
  Bytes payload = 0;
  if (variable.empty()) {
    payload = ds->file_bytes();
  } else {
    auto sub = ds->subset_bytes(variable);
    if (!sub) co_return;
    payload = *sub;
  }

  co_await sim_.sleep(options_.request_overhead);
  // Server-side service under the core/disk budget: subset requests pay the
  // CPU-bound variable extraction; whole-file requests pay raw streaming
  // time. Either way this is what bounds aggregate service rate as worker
  // counts grow.
  const double service_seconds =
      variable.empty()
          ? static_cast<double>(payload) / options_.raw_stream_rate_per_slot
          : options_.extraction_seconds;
  co_await slots_->acquire();
  co_await sim_.sleep(service_seconds);
  slots_->release(sim_);

  net::TransferOptions xfer;
  xfer.rate_cap = options_.per_connection_rate;
  auto handle = net_.transfer(node_, client, payload, xfer);
  co_await handle->done->wait(sim_);
  if (handle->failed) co_return;

  bytes_served_ += static_cast<double>(payload);
  requests_served_ += 1;
  if (bytes != nullptr) *bytes = payload;
  if (ok != nullptr) *ok = true;
}

sim::Task Aria2Client::download(std::string dataset, std::vector<std::size_t> files,
                                std::string variable, DownloadStats* stats) {
  stats->files = 0;
  stats->bytes = 0;
  stats->ok = true;
  stats->failed.clear();
  if (files.empty()) co_return;
  auto shared_files = std::make_shared<std::vector<std::size_t>>(std::move(files));
  auto next = std::make_shared<std::size_t>(0);
  auto done = sim::make_event();
  const int streams = std::max(1, std::min<int>(connections_,
                                                static_cast<int>(shared_files->size())));
  auto latch = std::make_shared<sim::Latch>(streams, done);
  for (int c = 0; c < streams; ++c) {
    sim_.spawn(connection_loop(this, dataset, variable, shared_files, next, stats, latch));
  }
  co_await done->wait(sim_);
}

sim::Task Aria2Client::connection_loop(Aria2Client* self, std::string dataset,
                                       std::string variable,
                                       std::shared_ptr<std::vector<std::size_t>> files,
                                       std::shared_ptr<std::size_t> next,
                                       DownloadStats* stats,
                                       std::shared_ptr<sim::Latch> latch) {
  while (*next < files->size()) {
    const std::size_t index = (*files)[(*next)++];
    bool ok = false;
    Bytes bytes = 0;
    co_await self->server_.fetch(self->client_, dataset, index, variable, &ok, &bytes);
    if (ok) {
      stats->files += 1;
      stats->bytes += bytes;
    } else {
      stats->ok = false;
      stats->failed.push_back(index);
    }
  }
  latch->count_down(self->sim_);
}

}  // namespace chase::thredds
