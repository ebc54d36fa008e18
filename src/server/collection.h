// Named-collection lifecycle behind the network server: a registry of
// {name -> SearchEngine over a ShardedIndex}, each with its own per-
// collection config (dim, metric, bits_per_dim, shards) and its own
// snapshot directory under one root.
//
// Concurrency scheme:
//   * The registry itself is a shared_mutex map of shared_ptr<Collection>.
//     Request dispatch does one shared-locked lookup and then operates on
//     the collection OUTSIDE the registry lock, so a slow create/drop never
//     stalls traffic to other collections.
//   * Create is two-phase, mirroring ShardedIndex::ReserveId/CompleteAdd:
//     the name is reserved in a pending set under the exclusive lock, the
//     index builds (KMeans + encode -- seconds at scale) with NO lock held,
//     then the finished collection is published. A failed build just
//     releases the reservation.
//   * Drop unlinks the collection from the registry and drains its engine
//     after unlocking; in-flight requests holding the shared_ptr finish
//     against the drained-but-alive engine. The snapshot directory is left
//     on disk (drop forgets the name, not the data; Restore brings it back).
//
// Snapshots reuse the crash-safe two-phase ShardedIndex::Save verbatim --
// each collection writes root/<name>/snapshot -- and SearchEngine's
// SaveSnapshot hook takes every shard lock SHARED so serving continues
// while the snapshot writes.

#ifndef RABITQ_SERVER_COLLECTION_H_
#define RABITQ_SERVER_COLLECTION_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/search_engine.h"
#include "server/protocol.h"

namespace rabitq {
namespace server {

/// One live named collection. `spec` is fixed at create/restore; `engine`
/// owns the index and all serving machinery.
struct Collection {
  std::string name;
  WireCollectionSpec spec;
  std::unique_ptr<SearchEngine> engine;
};

class CollectionManager {
 public:
  struct Config {
    /// Root of all per-collection snapshot directories
    /// (root/<name>/snapshot). Empty string: snapshot/restore are
    /// FailedPrecondition (a purely in-memory server).
    std::string root_dir;
    /// Engine template applied to every collection (threads, batching,
    /// admission depth, compaction knobs). Per-collection spec fields
    /// (dim/metric/bits/shards) come from the create request instead.
    EngineConfig engine;
    /// Registry size cap: create past it is kResourceExhausted.
    std::size_t max_collections = 64;
  };

  explicit CollectionManager(Config config) : config_(std::move(config)) {}

  /// Collection names are path components (snapshot dirs) and metric label
  /// values; the whitelist [A-Za-z0-9_-]{1,64} rules out traversal and
  /// exposition-format injection in one check.
  static bool ValidName(const std::string& name);

  /// Builds and publishes a collection over `train` (also its initial
  /// contents). Two-phase: the build runs with no registry lock held.
  Status Create(const std::string& name, const WireCollectionSpec& spec,
                const Matrix& train);

  /// Unlinks + drains. The snapshot directory, if any, stays on disk.
  Status Drop(const std::string& name);

  /// Shared-locked lookup; null when absent. Callers operate on the
  /// returned collection with no registry lock held.
  std::shared_ptr<Collection> Get(const std::string& name) const;

  /// Live collection names, sorted.
  std::vector<std::string> List() const;

  /// Writes root/<name>/snapshot via SearchEngine::SaveSnapshot (serving
  /// continues; crash-safe two-phase write).
  Status Snapshot(const std::string& name);

  /// Re-creates `name` from its snapshot directory. The collection must not
  /// currently exist (drop first); the spec is rebuilt from the loaded
  /// index, so restore needs no spec argument.
  Status Restore(const std::string& name);

  /// Drains every collection's engine (graceful shutdown). Collections stay
  /// in the registry; searches on them are refused post-drain.
  void DrainAll();

  std::size_t size() const;
  std::string SnapshotDir(const std::string& name) const;

 private:
  /// Reserves `name` in the pending set (exclusive lock). Fails on invalid
  /// name, existing/pending collection, or a full registry.
  Status ReserveName(const std::string& name);
  /// Publishes a built collection (or, with null, just releases the
  /// reservation after a failed build).
  void PublishOrRelease(const std::string& name,
                        std::shared_ptr<Collection> collection);

  Config config_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Collection>> collections_;
  std::unordered_set<std::string> pending_;
};

}  // namespace server
}  // namespace rabitq

#endif  // RABITQ_SERVER_COLLECTION_H_
