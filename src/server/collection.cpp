#include "server/collection.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace rabitq {
namespace server {

bool CollectionManager::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status CollectionManager::ReserveName(const std::string& name) {
  if (!ValidName(name)) {
    return Status::InvalidArgument(
        "collection name must match [A-Za-z0-9_-]{1,64}: '" + name + "'");
  }
  std::unique_lock lock(mutex_);
  if (collections_.count(name) != 0) {
    return Status::FailedPrecondition("collection already exists: " + name);
  }
  if (pending_.count(name) != 0) {
    return Status::FailedPrecondition("collection is being created: " + name);
  }
  if (collections_.size() + pending_.size() >= config_.max_collections) {
    return Status::ResourceExhausted(
        "collection limit reached (" +
        std::to_string(config_.max_collections) + ")");
  }
  pending_.insert(name);
  return Status::Ok();
}

void CollectionManager::PublishOrRelease(
    const std::string& name, std::shared_ptr<Collection> collection) {
  std::unique_lock lock(mutex_);
  pending_.erase(name);
  if (collection != nullptr) collections_.emplace(name, std::move(collection));
}

Status CollectionManager::Create(const std::string& name,
                                 const WireCollectionSpec& spec,
                                 const Matrix& train) {
  if (spec.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (spec.bits_per_dim != 1 && spec.bits_per_dim != 2 &&
      spec.bits_per_dim != 4 && spec.bits_per_dim != 8) {
    return Status::InvalidArgument("bits_per_dim must be 1, 2, 4 or 8");
  }
  if (spec.num_shards == 0 || spec.num_shards > ShardedIndex::kMaxShards) {
    return Status::InvalidArgument("num_shards out of range");
  }
  if (spec.num_lists == 0) {
    return Status::InvalidArgument("num_lists must be > 0");
  }
  RABITQ_RETURN_IF_ERROR(ValidateMetric(spec.metric));
  if (train.cols() != spec.dim) {
    return Status::InvalidArgument("training matrix dim mismatch");
  }
  if (train.rows() < spec.num_shards) {
    return Status::InvalidArgument(
        "need at least num_shards training vectors");
  }

  RABITQ_RETURN_IF_ERROR(ReserveName(name));

  // Build with no registry lock held: KMeans + encoding dominate create
  // latency, and other collections must keep serving through it.
  ShardedConfig sharded;
  sharded.num_shards = spec.num_shards;
  // kShared keeps scatter-gather results bit-identical to a single-shard
  // index -- the property the wire-vs-in-process parity tests pin.
  sharded.clustering = ShardClustering::kShared;
  sharded.ivf.num_lists = spec.num_lists;
  sharded.ivf.metric = spec.metric;
  sharded.rabitq.bits_per_dim = spec.bits_per_dim;

  ShardedIndex index;
  Status status = index.Build(train, sharded);
  if (!status.ok()) {
    PublishOrRelease(name, nullptr);
    return status;
  }

  auto collection = std::make_shared<Collection>();
  collection->name = name;
  collection->spec = spec;
  collection->engine =
      std::make_unique<SearchEngine>(std::move(index), config_.engine);
  PublishOrRelease(name, std::move(collection));
  return Status::Ok();
}

Status CollectionManager::Drop(const std::string& name) {
  std::shared_ptr<Collection> victim;
  {
    std::unique_lock lock(mutex_);
    auto it = collections_.find(name);
    if (it == collections_.end()) {
      return Status::NotFound("no such collection: " + name);
    }
    victim = std::move(it->second);
    collections_.erase(it);
  }
  // Drain outside the lock; requests still holding the shared_ptr are
  // refused by the drained engine (kFailedPrecondition).
  victim->engine->Drain();
  return Status::Ok();
}

std::shared_ptr<Collection> CollectionManager::Get(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second;
}

std::vector<std::string> CollectionManager::List() const {
  std::vector<std::string> names;
  {
    std::shared_lock lock(mutex_);
    names.reserve(collections_.size());
    for (const auto& [name, unused] : collections_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string CollectionManager::SnapshotDir(const std::string& name) const {
  return (std::filesystem::path(config_.root_dir) / name / "snapshot")
      .string();
}

Status CollectionManager::Snapshot(const std::string& name) {
  if (config_.root_dir.empty()) {
    return Status::FailedPrecondition("server has no snapshot root");
  }
  auto collection = Get(name);
  if (collection == nullptr) {
    return Status::NotFound("no such collection: " + name);
  }
  return collection->engine->SaveSnapshot(SnapshotDir(name));
}

Status CollectionManager::Restore(const std::string& name) {
  if (config_.root_dir.empty()) {
    return Status::FailedPrecondition("server has no snapshot root");
  }
  RABITQ_RETURN_IF_ERROR(ReserveName(name));

  ShardedIndex index;
  Status status = index.Load(SnapshotDir(name));
  if (!status.ok()) {
    PublishOrRelease(name, nullptr);
    return status;
  }

  // The snapshot is self-describing; rebuild the spec from the loaded index
  // instead of asking the caller to repeat (and possibly contradict) it.
  auto collection = std::make_shared<Collection>();
  collection->name = name;
  collection->spec.dim = static_cast<std::uint32_t>(index.dim());
  collection->spec.metric = index.metric();
  collection->spec.bits_per_dim =
      static_cast<std::uint8_t>(index.encoder().config().bits_per_dim);
  collection->spec.num_shards = static_cast<std::uint32_t>(index.num_shards());
  collection->spec.num_lists = static_cast<std::uint32_t>(index.num_lists());
  collection->engine =
      std::make_unique<SearchEngine>(std::move(index), config_.engine);
  PublishOrRelease(name, std::move(collection));
  return Status::Ok();
}

void CollectionManager::DrainAll() {
  std::vector<std::shared_ptr<Collection>> all;
  {
    std::shared_lock lock(mutex_);
    all.reserve(collections_.size());
    for (const auto& [unused, collection] : collections_) {
      all.push_back(collection);
    }
  }
  for (const auto& collection : all) collection->engine->Drain();
}

std::size_t CollectionManager::size() const {
  std::shared_lock lock(mutex_);
  return collections_.size();
}

}  // namespace server
}  // namespace rabitq
