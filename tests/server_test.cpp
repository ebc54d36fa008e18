// Integration tests for the network server subsystem (src/server/): the
// wire path must be a TRANSPARENT carrier for engine semantics.
//
//   * Parity: with an explicit seed, a Search through the client is
//     bit-identical to SearchEngine::Search over an identically built index
//     -- across metrics (l2 / ip / cosine), shard counts and bitmap
//     filters. The server builds with ShardClustering::kShared for exactly
//     this property.
//   * Degradation crosses the wire: queued-deadline shedding arrives as a
//     kDeadlineExceeded protocol status with the partial flag set, a
//     batch_search larger than max_queue_depth is refused whole as
//     kResourceExhausted, and (failpoint builds) an injected admission
//     rejection of a search or batch_search arrives as kResourceExhausted
//     -- not as collapsed IO errors.
//   * Lifecycle over the wire: create/list/drop errors, snapshot -> drop ->
//     restore round-trips bit-identically, drain shuts the server down.
//   * Fault drills (RABITQ_FAILPOINTS builds): a torn response write fails
//     the client closed, an injected accept failure and a read fault are
//     survived, and a slow client is dropped by the io timeout -- all
//     without taking the server down.
//
// The concurrency test (many clients + a wire writer) is in the CI
// ThreadSanitizer job's regex.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "index/sharded.h"
#include "server/client.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/prng.h"

namespace rabitq {
namespace server {
namespace {

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
  }
}

class ServerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 16;

  void SetUp() override {
    fail::ClearAll();
    data_ = ClusteredData(kN, kDim, 10, 7);
    queries_ = ClusteredData(16, kDim, 10, 8);
    root_ = (std::filesystem::temp_directory_path() /
             ("rabitq_server_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
  }

  void TearDown() override {
    fail::ClearAll();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  ServerConfig BaseConfig() const {
    ServerConfig config;
    config.port = 0;  // ephemeral: tests never race over a fixed port
    config.collections.root_dir = root_;
    return config;
  }

  WireCollectionSpec Spec(Metric metric, std::uint32_t shards) const {
    WireCollectionSpec spec;
    spec.dim = kDim;
    spec.metric = metric;
    spec.bits_per_dim = 1;
    spec.num_shards = shards;
    spec.num_lists = kLists;
    return spec;
  }

  /// The exact index CollectionManager::Create builds for `spec` -- the
  /// in-process half of every parity assertion.
  SearchEngine ReferenceEngine(const WireCollectionSpec& spec,
                               const EngineConfig& engine_config) const {
    ShardedConfig sharded;
    sharded.num_shards = spec.num_shards;
    sharded.clustering = ShardClustering::kShared;
    sharded.ivf.num_lists = spec.num_lists;
    sharded.ivf.metric = spec.metric;
    sharded.rabitq.bits_per_dim = spec.bits_per_dim;
    ShardedIndex index;
    EXPECT_TRUE(index.Build(data_, sharded).ok());
    return SearchEngine(std::move(index), engine_config);
  }

  SearchOptions SeededOptions(std::uint64_t seed) const {
    SearchOptions options;
    options.k = 10;
    options.nprobe = 8;
    options.seed = seed;
    return options;
  }

  Matrix data_;
  Matrix queries_;
  std::string root_;
};

// The headline contract: a seeded wire search returns byte-for-byte what the
// in-process engine returns, for every metric and for several shard counts.
TEST_F(ServerTest, WireSearchIsBitIdenticalToInProcess) {
  const ServerConfig config = BaseConfig();
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const struct {
    Metric metric;
    std::uint32_t shards;
  } cases[] = {{Metric::kL2, 1},
               {Metric::kL2, 3},
               {Metric::kInnerProduct, 2},
               {Metric::kCosine, 2}};
  for (const auto& c : cases) {
    const std::string name = std::string("parity_") + MetricName(c.metric) +
                             "_" + std::to_string(c.shards);
    const WireCollectionSpec spec = Spec(c.metric, c.shards);
    ASSERT_TRUE(client.CreateCollection(name, spec, data_).ok()) << name;
    SearchEngine reference = ReferenceEngine(spec, config.collections.engine);

    for (std::size_t qi = 0; qi < 6; ++qi) {
      const SearchOptions options = SeededOptions(100 + qi);
      const SearchResponse wire =
          client.Search(name, queries_.Row(qi), kDim, options);
      SearchRequest request;
      request.query = queries_.Row(qi);
      request.options = options;
      const SearchResponse local = reference.Search(request);
      ASSERT_TRUE(wire.status.ok())
          << name << " q" << qi << ": " << wire.status.message();
      ASSERT_TRUE(local.status.ok());
      EXPECT_FALSE(wire.partial);
      EXPECT_EQ(wire.shards_failed, local.shards_failed);
      ExpectSameNeighbors(local.neighbors, wire.neighbors);
      // The work accounting rides the wire too, not just the answers.
      EXPECT_EQ(wire.stats.codes_estimated, local.stats.codes_estimated);
      EXPECT_EQ(wire.stats.lists_probed, local.stats.lists_probed);
      EXPECT_EQ(wire.stats.candidates_reranked,
                local.stats.candidates_reranked);
    }
  }
}

// Bitmap filters (allow and deny) encode into the request frame and give
// the same answers as their in-process IdFilter views.
TEST_F(ServerTest, WireBitmapFiltersMatchInProcess) {
  const ServerConfig config = BaseConfig();
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const WireCollectionSpec spec = Spec(Metric::kL2, 2);
  ASSERT_TRUE(client.CreateCollection("filtered", spec, data_).ok());
  SearchEngine reference = ReferenceEngine(spec, config.collections.engine);

  std::vector<std::uint64_t> evens((kN + 63) / 64, 0);
  for (std::uint32_t id = 0; id < kN; id += 2) {
    evens[id >> 6] |= std::uint64_t{1} << (id & 63u);
  }
  const IdFilter filters[] = {IdFilter::AllowBitmap(evens.data(), kN),
                              IdFilter::DenyBitmap(evens.data(), kN)};
  for (const IdFilter& filter : filters) {
    for (std::size_t qi = 0; qi < 4; ++qi) {
      SearchOptions options = SeededOptions(500 + qi);
      options.filter = filter;
      const SearchResponse wire =
          client.Search("filtered", queries_.Row(qi), kDim, options);
      SearchRequest request;
      request.query = queries_.Row(qi);
      request.options = options;
      const SearchResponse local = reference.Search(request);
      ASSERT_TRUE(wire.status.ok()) << wire.status.message();
      ASSERT_TRUE(local.status.ok());
      ExpectSameNeighbors(local.neighbors, wire.neighbors);
      EXPECT_EQ(wire.stats.codes_filtered, local.stats.codes_filtered);
    }
  }
}

// A predicate filter is a function pointer -- it has no wire form. The
// client must refuse it locally (InvalidArgument) without burning the
// connection.
TEST_F(ServerTest, PredicateFilterCannotCrossTheWire) {
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  SearchOptions options = SeededOptions(1);
  options.filter = IdFilter::FromPredicate(
      [](void*, std::uint32_t id) { return id % 2 == 0; }, nullptr);
  const SearchResponse response =
      client.Search("whatever", queries_.Row(0), kDim, options);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
}

// Overload degradation crosses the wire: a request whose deadline expires
// while queued (forced deterministically by a linger much longer than the
// budget) answers kDeadlineExceeded with the partial flag set -- the same
// shape the in-process overload tests pin.
TEST_F(ServerTest, QueuedDeadlineShedCrossesTheWireAsPartial) {
  ServerConfig config = BaseConfig();
  config.collections.engine.max_batch = 32;
  config.collections.engine.batch_linger_us = 5000;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(
      client.CreateCollection("shed", Spec(Metric::kL2, 1), data_).ok());

  SearchOptions options = SeededOptions(9);
  options.timeout_us = 1;  // resolved at admission; long dead after linger
  const SearchResponse response =
      client.Search("shed", queries_.Row(0), kDim, options);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status.message();
  EXPECT_TRUE(response.partial);
  EXPECT_TRUE(response.neighbors.empty());

  // The connection survived the rejection; a patient request is served.
  const SearchResponse served =
      client.Search("shed", queries_.Row(0), kDim, SeededOptions(9));
  EXPECT_TRUE(served.status.ok()) << served.status.message();
  EXPECT_FALSE(served.neighbors.empty());
}

// batch_search is one engine submission, admitted or refused whole. A batch
// of more queries than max_queue_depth can never fit, so it is refused
// deterministically: resource_exhausted, every query's response carrying
// the refusal. The connection survives, and a batch that fits is served.
TEST_F(ServerTest, BatchSearchIsAdmittedOrRefusedWhole) {
  constexpr std::size_t kDepth = 4;
  ServerConfig config = BaseConfig();
  config.collections.engine.max_queue_depth = kDepth;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(
      client.CreateCollection("bounded", Spec(Metric::kL2, 1), data_).ok());

  std::vector<SearchResponse> responses;
  EXPECT_EQ(client
                .BatchSearch("bounded", queries_.Row(0), kDepth + 1, kDim,
                             SeededOptions(5), &responses)
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(responses.size(), kDepth + 1);
  for (const SearchResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(response.neighbors.empty());
  }

  EXPECT_TRUE(client.connected());
  ASSERT_TRUE(client
                  .BatchSearch("bounded", queries_.Row(0), kDepth, kDim,
                               SeededOptions(5), &responses)
                  .ok());
  ASSERT_EQ(responses.size(), kDepth);
  for (const SearchResponse& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_FALSE(response.neighbors.empty());
  }
}

// An admission rejection (queue full, injected deterministically) answers
// kResourceExhausted over the wire, for search and batch_search alike.
TEST_F(ServerTest, AdmissionRejectionCrossesTheWire) {
  if (!fail::FailpointsCompiledIn()) {
    GTEST_SKIP() << "build with -DRABITQ_FAILPOINTS=ON";
  }
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(
      client.CreateCollection("full", Spec(Metric::kL2, 1), data_).ok());

  fail::Configure("engine.queue_push", fail::Mode::kOnce);
  const SearchResponse rejected =
      client.Search("full", queries_.Row(0), kDim, SeededOptions(3));
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted)
      << rejected.status.message();
  EXPECT_TRUE(rejected.neighbors.empty());

  const SearchResponse served =
      client.Search("full", queries_.Row(0), kDim, SeededOptions(3));
  EXPECT_TRUE(served.status.ok()) << served.status.message();

  fail::Configure("engine.queue_push", fail::Mode::kOnce);
  std::vector<SearchResponse> responses;
  EXPECT_EQ(client
                .BatchSearch("full", queries_.Row(0), 3, kDim,
                             SeededOptions(3), &responses)
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(responses.size(), 3u);
  for (const SearchResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(response.neighbors.empty());
  }
  ASSERT_TRUE(client
                  .BatchSearch("full", queries_.Row(0), 3, kDim,
                               SeededOptions(3), &responses)
                  .ok());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].neighbors.empty());
}

// Request-level errors arrive as first-class protocol statuses, and none of
// them burn the connection.
TEST_F(ServerTest, LifecycleErrorsCrossTheWire) {
  ServerConfig config = BaseConfig();
  config.collections.max_collections = 2;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  EXPECT_EQ(client.CreateCollection("bad name!", Spec(Metric::kL2, 1), data_)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.CreateCollection("a", Spec(Metric::kL2, 1), data_).ok());
  EXPECT_EQ(client.CreateCollection("a", Spec(Metric::kL2, 1), data_).code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(
      client.Search("missing", queries_.Row(0), kDim, SeededOptions(1))
          .status.code(),
      StatusCode::kNotFound);
  std::vector<float> short_vec(kDim - 1, 0.0f);
  EXPECT_EQ(client.Add("a", short_vec.data(), kDim - 1, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.DropCollection("missing").code(), StatusCode::kNotFound);

  ASSERT_TRUE(client.CreateCollection("b", Spec(Metric::kL2, 1), data_).ok());
  EXPECT_EQ(client.CreateCollection("c", Spec(Metric::kL2, 1), data_).code(),
            StatusCode::kResourceExhausted);

  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
}

// Non-finite coordinates cross the wire as InvalidArgument: a NaN or inf
// vector never enters a collection (create, add, update), and a NaN query
// fails alone -- its batch neighbors still answer exactly as they would
// by themselves.
TEST_F(ServerTest, NonFiniteVectorsAreRejectedOverTheWire) {
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const float kNaN = std::numeric_limits<float>::quiet_NaN();

  Matrix poisoned = data_;
  poisoned.At(3, 5) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(client.CreateCollection("p", Spec(Metric::kL2, 2), poisoned)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.CreateCollection("c", Spec(Metric::kL2, 2), data_).ok());

  std::vector<float> vec(queries_.Row(0), queries_.Row(0) + kDim);
  vec[1] = kNaN;
  EXPECT_EQ(client.Add("c", vec.data(), kDim, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Update("c", 0, vec.data(), kDim).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Search("c", vec.data(), kDim, SeededOptions(1)).status.code(),
            StatusCode::kInvalidArgument);

  Matrix batch(3, kDim);
  for (std::size_t q = 0; q < 3; ++q) {
    std::copy_n(queries_.Row(q), kDim, batch.Row(q));
  }
  batch.At(1, 0) = kNaN;
  std::vector<SearchResponse> responses;
  EXPECT_EQ(client
                .BatchSearch("c", batch.data(), 3, kDim, SeededOptions(2),
                             &responses)
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  for (const std::size_t q : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(responses[q].status.ok()) << responses[q].status.message();
    const SearchResponse alone =
        client.Search("c", batch.Row(q), kDim, SeededOptions(2));
    ASSERT_TRUE(alone.ok());
    ExpectSameNeighbors(alone.neighbors, responses[q].neighbors);
    for (const Neighbor& nb : alone.neighbors) {
      EXPECT_TRUE(std::isfinite(nb.first)) << "id " << nb.second;
    }
  }
  EXPECT_TRUE(client.connected());
}

// Snapshot -> drop -> restore over the wire round-trips the collection
// bit-identically (the snapshot is the engine's crash-safe two-phase save).
TEST_F(ServerTest, SnapshotDropRestoreRoundTripsBitIdentically) {
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(
      client.CreateCollection("snap", Spec(Metric::kL2, 2), data_).ok());

  std::uint32_t id = 0;
  ASSERT_TRUE(client.Add("snap", queries_.Row(15), kDim, &id).ok());
  const SearchResponse before =
      client.Search("snap", queries_.Row(0), kDim, SeededOptions(77));
  ASSERT_TRUE(before.status.ok());
  ASSERT_FALSE(before.neighbors.empty());

  ASSERT_TRUE(client.Snapshot("snap").ok());
  ASSERT_TRUE(client.DropCollection("snap").ok());
  EXPECT_EQ(
      client.Search("snap", queries_.Row(0), kDim, SeededOptions(77))
          .status.code(),
      StatusCode::kNotFound);

  ASSERT_TRUE(client.Restore("snap").ok());
  std::vector<std::string> names;
  ASSERT_TRUE(client.ListCollections(&names).ok());
  EXPECT_NE(std::find(names.begin(), names.end(), "snap"), names.end());

  const SearchResponse after =
      client.Search("snap", queries_.Row(0), kDim, SeededOptions(77));
  ASSERT_TRUE(after.status.ok()) << after.status.message();
  ExpectSameNeighbors(before.neighbors, after.neighbors);

  // The restored collection keeps serving writes.
  EXPECT_TRUE(client.Add("snap", queries_.Row(14), kDim, nullptr).ok());
}

// The stats endpoint: per-collection scrape is the historical unlabeled
// exposition; the server-wide scrape adds server counters and labels every
// collection's series with collection="<name>".
TEST_F(ServerTest, StatsAndListOverTheWire) {
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.CreateCollection("tenant-a", Spec(Metric::kL2, 1), data_)
                  .ok());
  ASSERT_TRUE(client.CreateCollection("tenant-b", Spec(Metric::kL2, 1), data_)
                  .ok());
  (void)client.Search("tenant-a", queries_.Row(0), kDim, SeededOptions(1));

  std::vector<std::string> names;
  ASSERT_TRUE(client.ListCollections(&names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"tenant-a", "tenant-b"}));

  std::string prom;
  ASSERT_TRUE(client.Stats("tenant-a", /*format=*/1, &prom).ok());
  EXPECT_NE(prom.find("rabitq_queries_total "), std::string::npos)
      << "per-collection scrape must stay unlabeled";
  EXPECT_EQ(prom.find("collection="), std::string::npos);

  std::string server_prom;
  ASSERT_TRUE(client.Stats("", /*format=*/1, &server_prom).ok());
  EXPECT_NE(server_prom.find("rabitq_server_requests_total "),
            std::string::npos);
  EXPECT_NE(server_prom.find("collection=\"tenant-a\""), std::string::npos);
  EXPECT_NE(server_prom.find("collection=\"tenant-b\""), std::string::npos);

  std::string json;
  ASSERT_TRUE(client.Stats("", /*format=*/0, &json).ok());
  EXPECT_EQ(json.rfind("{\"server\":", 0), 0u);
  EXPECT_NE(json.find("\"tenant-a\":"), std::string::npos);
}

// A wire drain shuts the whole server down: the drain itself is
// acknowledged, Wait() returns, and the listener stops accepting.
TEST_F(ServerTest, DrainShutsTheServerDownCleanly) {
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(
      client.CreateCollection("d", Spec(Metric::kL2, 1), data_).ok());

  EXPECT_TRUE(client.Drain().ok());
  server.Wait();
  EXPECT_TRUE(server.stopping());

  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", port).ok());
}

// Many concurrent clients (plus a wire writer churning a second collection)
// against precomputed in-process answers -- the CI TSan job's target.
TEST_F(ServerTest, ConcurrentClientsStayBitIdentical) {
  const ServerConfig config = BaseConfig();
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", port).ok());
  const WireCollectionSpec spec = Spec(Metric::kL2, 2);
  ASSERT_TRUE(admin.CreateCollection("readers", spec, data_).ok());
  ASSERT_TRUE(admin.CreateCollection("churn", spec, data_).ok());

  SearchEngine reference = ReferenceEngine(spec, config.collections.engine);
  std::vector<std::vector<Neighbor>> expected(8);
  for (std::size_t qi = 0; qi < expected.size(); ++qi) {
    SearchRequest request;
    request.query = queries_.Row(qi);
    request.options = SeededOptions(900 + qi);
    const SearchResponse local = reference.Search(request);
    ASSERT_TRUE(local.status.ok());
    expected[qi] = local.neighbors;
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        mismatches.fetch_add(1);
        return;
      }
      for (int i = 0; i < 24; ++i) {
        const std::size_t qi = static_cast<std::size_t>(t + i) % 8;
        const SearchResponse wire = client.Search(
            "readers", queries_.Row(qi), kDim, SeededOptions(900 + qi));
        if (!wire.status.ok() || wire.neighbors != expected[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    Client client;
    if (!client.Connect("127.0.0.1", port).ok()) return;
    for (std::uint32_t i = 0; i < 48; ++i) {
      std::uint32_t id = 0;
      (void)client.Add("churn", queries_.Row(i % 16), kDim, &id);
      if (i % 3 == 0) (void)client.Delete("churn", i % 100);
      if (i % 5 == 0) {
        (void)client.Update("churn", i % 100 + 100, queries_.Row(i % 16),
                            kDim);
      }
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------- fault drills --

TEST_F(ServerTest, TornResponseWriteFailsClientClosedAndServerSurvives) {
  if (!fail::FailpointsCompiledIn()) {
    GTEST_SKIP() << "build with -DRABITQ_FAILPOINTS=ON";
  }
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  // The server flushes HALF the next response frame, then fails the
  // connection. The client must reject the stub (fail closed), not parse it.
  fail::Configure("server.conn_write", fail::Mode::kOnce);
  const Status torn = client.Ping();
  EXPECT_FALSE(torn.ok());
  EXPECT_FALSE(client.connected());

  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(ServerTest, InjectedReadFaultDropsOnlyThatConnection) {
  if (!fail::FailpointsCompiledIn()) {
    GTEST_SKIP() << "build with -DRABITQ_FAILPOINTS=ON";
  }
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());

  // Armed before the connection exists: its very first frame read fails and
  // the connection drops without a response.
  fail::Configure("server.conn_read", fail::Mode::kOnce);
  Client doomed;
  ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port()).ok());
  EXPECT_FALSE(doomed.Ping().ok());

  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(ServerTest, InjectedAcceptFailureIsSurvived) {
  if (!fail::FailpointsCompiledIn()) {
    GTEST_SKIP() << "build with -DRABITQ_FAILPOINTS=ON";
  }
  // Armed before Start: the accept loop's first pass fails, is counted, and
  // the loop keeps serving.
  fail::Configure("server.accept", fail::Mode::kOnce);
  Server server(BaseConfig());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());

  const obs::MetricsSnapshot snapshot = server.metrics()->Snapshot();
  const obs::MetricValue* errors =
      snapshot.Find("rabitq_server_accept_errors_total");
  ASSERT_NE(errors, nullptr);
  EXPECT_GE(errors->u64, 1u);
}

// A peer that connects and then stalls mid-frame is bounded by the
// per-socket io timeout: the server drops it (counted as a framing error)
// and keeps serving everyone else.
TEST_F(ServerTest, SlowClientIsDroppedByIoTimeout) {
  ServerConfig config = BaseConfig();
  config.io_timeout_ms = 200;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  Socket stalled;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &stalled).ok());
  const std::uint32_t magic = kFrameMagic;
  ASSERT_TRUE(WriteFull(stalled.fd(), &magic, sizeof(magic)).ok());
  // Never send the rest of the header. The server's recv times out and the
  // connection fails closed: our next read sees EOF, never a response.
  std::uint8_t byte = 0;
  const Status read_status = ReadFull(stalled.fd(), &byte, 1);
  EXPECT_FALSE(read_status.ok());

  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());

  const obs::MetricsSnapshot snapshot = server.metrics()->Snapshot();
  const obs::MetricValue* frame_errors =
      snapshot.Find("rabitq_server_frame_errors_total");
  ASSERT_NE(frame_errors, nullptr);
  EXPECT_GE(frame_errors->u64, 1u);
}

// Pure codec check: a degraded response (deadline exceeded, partial, some
// neighbors, shard failures, work stats) round-trips through the wire
// encoding without losing a field.
TEST(ServerProtocolTest, DegradedSearchResponseRoundTripsLosslessly) {
  SearchResponse original;
  original.status = Status::DeadlineExceeded("mid-scan stop");
  original.partial = true;
  original.shards_ok = 3;
  original.shards_failed = 1;
  original.neighbors = {{1.25f, 42}, {2.5f, 7}};
  original.stats.codes_estimated = 1000;
  original.stats.candidates_reranked = 50;
  original.stats.lists_probed = 9;
  original.stats.codes_filtered = 123;
  original.stats.codes_refined = 17;

  std::string body;
  WireWriter w(&body);
  EncodeSearchResponse(original, &w);
  WireReader r(reinterpret_cast<const std::uint8_t*>(body.data()),
               body.size());
  SearchResponse decoded;
  ASSERT_TRUE(DecodeSearchResponse(&r, &decoded));
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(decoded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.status.message(), "mid-scan stop");
  EXPECT_TRUE(decoded.partial);
  EXPECT_EQ(decoded.shards_ok, 3u);
  EXPECT_EQ(decoded.shards_failed, 1u);
  ExpectSameNeighbors(original.neighbors, decoded.neighbors);
  EXPECT_EQ(decoded.stats.codes_estimated, 1000u);
  EXPECT_EQ(decoded.stats.candidates_reranked, 50u);
  EXPECT_EQ(decoded.stats.lists_probed, 9u);
  EXPECT_EQ(decoded.stats.codes_filtered, 123u);
  EXPECT_EQ(decoded.stats.codes_refined, 17u);
}

}  // namespace
}  // namespace server
}  // namespace rabitq
