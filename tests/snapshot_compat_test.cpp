// Snapshot format compatibility: the committed v1 golden file (written by
// the pre-lifecycle code, magic "RBQIVF01"), v2 golden file (written by
// the pre-metric code, "RBQIVF02"), v3 golden file (written by the
// pre-multi-bit code, "RBQIVF03", inner-product metric), v4 golden file
// (written by the pre-checksum code, "RBQIVF04", 2-bit codes) and v5
// golden file (the last per-code-record format, "RBQIVF05", 4-bit codes,
// tombstones and a stale update entry) must keep loading -- v1/v2 as kL2,
// v1-v3 with bits_per_dim = 1 -- and the current v6 format ("RBQIVF06",
// code stores saved as they sit in memory, CRC-32 footer over the body)
// must round-trip a mutated index -- tombstones, stale update entries and
// all -- with bit-identical search results. The v6 golden file, written
// from the v5 golden's recipe, pins the current format itself: it re-saves
// byte-identically, a fresh build from the recipe saves the same bytes, and
// the v5 golden re-saves to them too. The metric byte (offset 12) and the
// rotator-kind byte (offset 40) are fuzzed explicitly: in-range values load
// with that setting, out-of-range values fail closed before the rotator
// rebuild. Truncations and bit flips run at 1 and 4 bits per dimension, and
// body corruption is caught by the checksum.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "index/ivf.h"
#include "index/sharded.h"
#include "util/crc32.h"
#include "util/prng.h"

#ifndef RABITQ_TEST_DATA_DIR
#define RABITQ_TEST_DATA_DIR "tests/data"
#endif

namespace rabitq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

// Mirrors the generator that produced tests/data/golden_v1.rbq: 200 x 16
// Gaussian vectors from Rng(123), 8 lists, default RabitqConfig.
constexpr std::size_t kGoldenN = 200;
constexpr std::size_t kGoldenDim = 16;
constexpr std::size_t kGoldenLists = 8;
constexpr std::size_t kGoldenBits = 64;

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
  }
}

std::vector<std::vector<Neighbor>> SearchAll(const IvfRabitqIndex& index,
                                             SearchOptions params) {
  Rng qrng(5150);
  std::vector<std::vector<Neighbor>> out;
  for (std::size_t q = 0; q < 10; ++q) {
    std::vector<float> query(index.dim());
    for (auto& v : query) v = static_cast<float>(qrng.Gaussian());
    params.seed = 9000 + q;
    SearchResponse response = index.Search({query.data(), params});
    EXPECT_TRUE(response.ok());
    out.push_back(std::move(response.neighbors));
  }
  return out;
}

TEST(SnapshotCompatTest, V1GoldenFileLoads) {
  IvfRabitqIndex index;
  const std::string golden =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v1.rbq";
  ASSERT_TRUE(index.Load(golden).ok()) << "cannot load v1 golden " << golden;
  EXPECT_EQ(index.size(), kGoldenN);
  EXPECT_EQ(index.dim(), kGoldenDim);
  EXPECT_EQ(index.num_lists(), kGoldenLists);
  EXPECT_EQ(index.encoder().total_bits(), kGoldenBits);
  // v1 predates tombstones and metrics: everything is live, metric is L2.
  EXPECT_EQ(index.live_size(), kGoldenN);
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_EQ(index.metric(), Metric::kL2);

  // Every id is live in exactly one list, and a full-probe self-search
  // finds each sampled vector at distance ~0.
  std::size_t total_entries = 0;
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    total_entries += index.list_ids(l).size();
    EXPECT_EQ(index.list_tombstones(l), 0u);
  }
  EXPECT_EQ(total_entries, kGoldenN);
  SearchOptions params;
  params.k = 1;
  params.nprobe = index.num_lists();
  for (std::uint32_t id = 0; id < kGoldenN; id += 37) {
    params.seed = id;
    const SearchResponse response = index.Search({index.vector(id), params});
    ASSERT_TRUE(response.ok());
    const std::vector<Neighbor>& out = response.neighbors;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].second, id);
    EXPECT_NEAR(out[0].first, 0.0f, 1e-5f);
  }
}

// The v2 golden file (pre-metric writer) loads as kL2 with bit-identical
// search results to the v1 golden over the same generator data.
TEST(SnapshotCompatTest, V2GoldenFileLoadsAsL2) {
  IvfRabitqIndex v2;
  const std::string golden =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v2.rbq";
  ASSERT_TRUE(v2.Load(golden).ok()) << "cannot load v2 golden " << golden;
  EXPECT_EQ(v2.size(), kGoldenN);
  EXPECT_EQ(v2.dim(), kGoldenDim);
  EXPECT_EQ(v2.num_lists(), kGoldenLists);
  EXPECT_EQ(v2.metric(), Metric::kL2);
  EXPECT_EQ(v2.num_tombstones(), 0u);

  IvfRabitqIndex v1;
  ASSERT_TRUE(
      v1.Load(std::string(RABITQ_TEST_DATA_DIR) + "/golden_v1.rbq").ok());
  SearchOptions params;
  params.k = 10;
  params.nprobe = 4;
  const auto want = SearchAll(v1, params);
  const auto got = SearchAll(v2, params);
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameNeighbors(want[q], got[q]);
  }
}

// The v3 golden file (pre-multi-bit writer, inner-product metric) pins the
// metric-persisting format: it must load with its metric, bits_per_dim = 1,
// stored arrays bit-identical to an in-test rebuild from the generator
// recipe, and it must survive a current-format (v4) re-save bit-identically.
TEST(SnapshotCompatTest, V3GoldenFileLoadsWithMetricAndMatchesRebuild) {
  IvfRabitqIndex golden;
  const std::string path =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v3.rbq";
  ASSERT_TRUE(golden.Load(path).ok()) << "cannot load v3 golden " << path;
  EXPECT_EQ(golden.size(), kGoldenN);
  EXPECT_EQ(golden.dim(), kGoldenDim);
  EXPECT_EQ(golden.num_lists(), kGoldenLists);
  EXPECT_EQ(golden.metric(), Metric::kInnerProduct);
  EXPECT_EQ(golden.encoder().config().bits_per_dim, 1u);
  EXPECT_EQ(golden.num_tombstones(), 0u);

  // The generator recipe, replayed: same data, same build, same metric.
  Rng rng(123);
  Matrix data(kGoldenN, kGoldenDim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfRabitqIndex rebuilt;
  IvfConfig ivf;
  ivf.num_lists = kGoldenLists;
  ivf.metric = Metric::kInnerProduct;
  ASSERT_TRUE(rebuilt.Build(data, ivf, RabitqConfig{}).ok());
  ASSERT_EQ(rebuilt.num_lists(), golden.num_lists());
  for (std::size_t l = 0; l < golden.num_lists(); ++l) {
    ASSERT_EQ(golden.list_ids(l), rebuilt.list_ids(l)) << "list " << l;
    const RabitqCodeStore& a = golden.list_codes(l);
    const RabitqCodeStore& b = rebuilt.list_codes(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::vector<std::uint64_t> a_bits(a.words_per_code());
      std::vector<std::uint64_t> b_bits(b.words_per_code());
      a.UnpackPlane(i, 0, a_bits.data());
      b.UnpackPlane(i, 0, b_bits.data());
      for (std::size_t w = 0; w < a.words_per_code(); ++w) {
        ASSERT_EQ(a_bits[w], b_bits[w]) << "list " << l;
      }
      // dist_to_centroid, o_o and norm_sq, through their resident images
      // (under inner product f_sq = (dist^2 - norm_sq) / 2).
      EXPECT_EQ(a.f_cross_data()[i], b.f_cross_data()[i]);
      EXPECT_EQ(a.f_inv_oo_data()[i], b.f_inv_oo_data()[i]);
      EXPECT_EQ(a.bit_count(i), b.bit_count(i));
      EXPECT_EQ(a.f_sq_data()[i], b.f_sq_data()[i]);
      EXPECT_EQ(a.factors(i), b.factors(i));
    }
  }

  SearchOptions params;
  params.k = 10;
  params.nprobe = 4;
  const auto want = SearchAll(rebuilt, params);
  const auto got = SearchAll(golden, params);
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameNeighbors(want[q], got[q]);
  }

  // Current-format re-save keeps metric and results bit-identical.
  const std::string resaved = TempPath("golden_v3_as_v4.rbq");
  ASSERT_TRUE(golden.Save(resaved).ok());
  IvfRabitqIndex v4;
  ASSERT_TRUE(v4.Load(resaved).ok());
  EXPECT_EQ(v4.metric(), Metric::kInnerProduct);
  const auto after = SearchAll(v4, params);
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameNeighbors(want[q], after[q]);
  }
  std::remove(resaved.c_str());
}

// The v4 golden file (pre-checksum writer, 2-bit codes, inner product) pins
// the multi-bit format: it must load with bits_per_dim = 2 and its metric,
// search bit-identically to an in-test rebuild from the generator recipe,
// and survive a current-format re-save bit-identically.
TEST(SnapshotCompatTest, V4GoldenFileLoadsAndSurvivesCurrentReSave) {
  IvfRabitqIndex golden;
  const std::string path =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v4.rbq";
  ASSERT_TRUE(golden.Load(path).ok()) << "cannot load v4 golden " << path;
  EXPECT_EQ(golden.size(), kGoldenN);
  EXPECT_EQ(golden.dim(), kGoldenDim);
  EXPECT_EQ(golden.num_lists(), kGoldenLists);
  EXPECT_EQ(golden.metric(), Metric::kInnerProduct);
  EXPECT_EQ(golden.encoder().config().bits_per_dim, 2u);
  EXPECT_EQ(golden.num_tombstones(), 0u);

  // The generator recipe, replayed: same data, same build, 2-bit codes.
  Rng rng(123);
  Matrix data(kGoldenN, kGoldenDim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfRabitqIndex rebuilt;
  IvfConfig ivf;
  ivf.num_lists = kGoldenLists;
  ivf.metric = Metric::kInnerProduct;
  RabitqConfig rabitq;
  rabitq.bits_per_dim = 2;
  ASSERT_TRUE(rebuilt.Build(data, ivf, rabitq).ok());

  SearchOptions params;
  params.k = 10;
  params.nprobe = 4;
  const auto want = SearchAll(rebuilt, params);
  const auto got = SearchAll(golden, params);
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameNeighbors(want[q], got[q]);
  }

  const std::string resaved = TempPath("golden_v4_resaved.rbq");
  ASSERT_TRUE(golden.Save(resaved).ok());
  IvfRabitqIndex current;
  ASSERT_TRUE(current.Load(resaved).ok());
  EXPECT_EQ(current.metric(), Metric::kInnerProduct);
  EXPECT_EQ(current.encoder().config().bits_per_dim, 2u);
  const auto after = SearchAll(current, params);
  for (std::size_t q = 0; q < want.size(); ++q) {
    ExpectSameNeighbors(want[q], after[q]);
  }
  std::remove(resaved.c_str());
}

// The golden_v5.rbq (and golden_v6.rbq) recipe: the v1 generator data at
// bits_per_dim = 4 under kL2, then deletes of ids 0, 9, 18, ... and one
// update of id 5 (which leaves a stale tombstoned entry in its old list).
void BuildGoldenV5Recipe(IvfRabitqIndex* index) {
  Rng rng(123);
  Matrix data(kGoldenN, kGoldenDim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfConfig ivf;
  ivf.num_lists = kGoldenLists;
  ivf.metric = Metric::kL2;
  RabitqConfig rabitq;
  rabitq.bits_per_dim = 4;
  ASSERT_TRUE(index->Build(data, ivf, rabitq).ok());
  for (std::uint32_t id = 0; id < kGoldenN; id += 9) {
    ASSERT_TRUE(index->Delete(id).ok());
  }
  Rng update_rng(77);
  std::vector<float> vec(kGoldenDim);
  for (auto& v : vec) v = static_cast<float>(update_rng.Gaussian()) * 2.0f;
  ASSERT_TRUE(index->Update(5, vec.data()).ok());
}

// The golden_v5.rbq file (per-code records of bits and primaries, the
// last format before v6) loads, searches bit-identically to a fresh build
// of its recipe on both estimator paths, and re-saves to exactly the v6
// golden's bytes: the factors it derives are the ones the encoder makes.
TEST(SnapshotCompatTest, V5GoldenLoadsMatchesRebuildAndReSavesAsV6) {
  const std::string path =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v5.rbq";
  IvfRabitqIndex golden;
  ASSERT_TRUE(golden.Load(path).ok()) << "cannot load v5 golden " << path;
  EXPECT_EQ(golden.size(), kGoldenN);
  EXPECT_EQ(golden.live_size(), kGoldenN - 23);
  EXPECT_EQ(golden.num_tombstones(), 24u);  // 23 deletes + 1 stale entry
  EXPECT_EQ(golden.metric(), Metric::kL2);
  EXPECT_EQ(golden.encoder().config().bits_per_dim, 4u);

  IvfRabitqIndex rebuilt;
  BuildGoldenV5Recipe(&rebuilt);
  for (const bool batch : {true, false}) {
    SearchOptions params;
    params.k = 10;
    params.nprobe = 4;
    params.use_batch_estimator = batch;
    const auto want = SearchAll(rebuilt, params);
    const auto got = SearchAll(golden, params);
    for (std::size_t q = 0; q < want.size(); ++q) {
      ExpectSameNeighbors(want[q], got[q]);
    }
  }

  const std::string resaved = TempPath("golden_v5_as_v6.rbq");
  ASSERT_TRUE(golden.Save(resaved).ok());
  EXPECT_TRUE(ReadFileBytes(resaved) ==
              ReadFileBytes(std::string(RABITQ_TEST_DATA_DIR) +
                            "/golden_v6.rbq"))
      << "re-saved v5 golden differs from the v6 golden";
  std::remove(resaved.c_str());
}

// The golden_v6.rbq file pins the current format (written from the v5
// recipe): it re-saves byte-identically, and a fresh build of the recipe
// saves the same bytes and searches alike.
TEST(SnapshotCompatTest, V6GoldenReSavesByteIdenticallyAndMatchesRebuild) {
  const std::string path =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v6.rbq";
  IvfRabitqIndex golden;
  ASSERT_TRUE(golden.Load(path).ok()) << "cannot load v6 golden " << path;
  EXPECT_EQ(golden.size(), kGoldenN);
  EXPECT_EQ(golden.live_size(), kGoldenN - 23);
  EXPECT_EQ(golden.num_tombstones(), 24u);
  EXPECT_EQ(golden.metric(), Metric::kL2);
  EXPECT_EQ(golden.encoder().config().bits_per_dim, 4u);
  const std::vector<unsigned char> golden_bytes = ReadFileBytes(path);

  // Load + Save reproduces the file byte for byte.
  const std::string resaved = TempPath("golden_v6_resaved.rbq");
  ASSERT_TRUE(golden.Save(resaved).ok());
  EXPECT_TRUE(ReadFileBytes(resaved) == golden_bytes)
      << "re-saved v6 golden differs from the committed file";
  std::remove(resaved.c_str());

  // A fresh build of the recipe saves the same bytes and searches alike.
  IvfRabitqIndex rebuilt;
  BuildGoldenV5Recipe(&rebuilt);
  const std::string fresh = TempPath("golden_v6_fresh.rbq");
  ASSERT_TRUE(rebuilt.Save(fresh).ok());
  EXPECT_TRUE(ReadFileBytes(fresh) == golden_bytes)
      << "fresh v6 build saves different bytes than the committed file";
  std::remove(fresh.c_str());
  for (const bool batch : {true, false}) {
    SearchOptions params;
    params.k = 10;
    params.nprobe = 4;
    params.use_batch_estimator = batch;
    const auto want = SearchAll(rebuilt, params);
    const auto got = SearchAll(golden, params);
    for (std::size_t q = 0; q < want.size(); ++q) {
      ExpectSameNeighbors(want[q], got[q]);
    }
  }
}

TEST(SnapshotCompatTest, V1GoldenSurvivesCurrentRoundTripBitIdentically) {
  IvfRabitqIndex v1;
  ASSERT_TRUE(
      v1.Load(std::string(RABITQ_TEST_DATA_DIR) + "/golden_v1.rbq").ok());
  SearchOptions params;
  params.k = 10;
  params.nprobe = 4;
  const auto before = SearchAll(v1, params);

  const std::string path = TempPath("golden_as_v3.rbq");
  ASSERT_TRUE(v1.Save(path).ok());  // rewrites in the current (v3) format
  IvfRabitqIndex v3;
  ASSERT_TRUE(v3.Load(path).ok());
  EXPECT_EQ(v3.metric(), Metric::kL2);
  const auto after = SearchAll(v3, params);
  for (std::size_t q = 0; q < before.size(); ++q) {
    ExpectSameNeighbors(before[q], after[q]);
  }
  std::remove(path.c_str());
}

TEST(SnapshotCompatTest, MutatedIndexRoundTripsBitIdentically) {
  // Build, then mutate: deletes, updates (which leave stale tombstoned
  // entries in their old lists) and fresh appends.
  Rng rng(2024);
  Matrix data(600, 24);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 12;
  ASSERT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  for (std::uint32_t id = 0; id < 600; id += 3) {
    ASSERT_TRUE(index.Delete(id).ok());
  }
  std::vector<float> vec(24);
  // Step 51 keeps id = 1 (mod 3), dodging the ids deleted above.
  for (std::uint32_t id = 1; id < 600; id += 51) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 3.0f;
    ASSERT_TRUE(index.Update(id, vec.data()).ok());
  }
  for (int i = 0; i < 20; ++i) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Add(vec.data()).ok());
  }
  ASSERT_GT(index.num_tombstones(), 0u);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 12;
  const auto before = SearchAll(index, params);

  const std::string path = TempPath("mutated_v2.rbq");
  ASSERT_TRUE(index.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());

  // Lifecycle accounting survives the round trip...
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.live_size(), index.live_size());
  EXPECT_EQ(loaded.num_tombstones(), index.num_tombstones());
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    EXPECT_EQ(loaded.list_tombstones(l), index.list_tombstones(l));
    EXPECT_EQ(loaded.list_ids(l), index.list_ids(l));
  }
  for (std::uint32_t id = 0; id < index.size(); ++id) {
    EXPECT_EQ(loaded.IsDeleted(id), index.IsDeleted(id)) << "id " << id;
  }

  // ...and search results are bit-identical.
  const auto after = SearchAll(loaded, params);
  for (std::size_t q = 0; q < before.size(); ++q) {
    ExpectSameNeighbors(before[q], after[q]);
  }

  // The reloaded index keeps mutating correctly: compaction drains the
  // restored tombstones and the results stay bit-identical.
  ASSERT_TRUE(loaded.Compact().ok());
  EXPECT_EQ(loaded.num_tombstones(), 0u);
  const auto compacted = SearchAll(loaded, params);
  for (std::size_t q = 0; q < before.size(); ++q) {
    ExpectSameNeighbors(before[q], compacted[q]);
  }
  std::remove(path.c_str());
}

// Regression: repeated updates of one id leave that id's lists with far
// more (tombstoned) entries than the index has vectors; the v2 loader's
// per-list sanity bound must come from the stored entry total, not from n.
TEST(SnapshotCompatTest, HeavilyUpdatedTinyIndexRoundTrips) {
  Rng rng(9);
  Matrix data(4, 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 2;
  ASSERT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  std::vector<float> vec(8);
  for (int round = 0; round < 10; ++round) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Update(0, vec.data()).ok());
  }
  ASSERT_EQ(index.num_tombstones(), 10u);

  const std::string path = TempPath("tiny_updated.rbq");
  ASSERT_TRUE(index.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded.live_size(), 4u);
  EXPECT_EQ(loaded.num_tombstones(), 10u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption robustness: the loaders must FAIL CLOSED on damaged snapshots.
// Truncations at any offset must produce an error (never a crash, never a
// silently short index); single-bit flips must never crash or OOM -- they
// either error out or, when they hit non-structural payload bytes (raw
// vector data has no checksum), load an index that still upholds its own
// invariants and can serve a search.

// Unlinks the path first: truncating a file that already holds data makes
// ext4 flush it on close, which turned each fuzz mutant into a blocking
// disk write. A fresh inode carries no such flush.
void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// The v5 footer is the CRC-32 of every byte between the 12-byte header
// (magic + version) and the final 4 footer bytes. Byte-patching fuzzers
// that test a SPECIFIC validation path must recompute it after patching,
// or the checksum would mask the corruption under test.
void FixupChecksum(std::vector<unsigned char>* bytes) {
  ASSERT_GT(bytes->size(), 16u);
  const std::size_t crc_off = bytes->size() - 4;
  const std::uint32_t crc = Crc32(bytes->data() + 12, crc_off - 12);
  for (std::size_t b = 0; b < 4; ++b) {
    (*bytes)[crc_off + b] = static_cast<unsigned char>((crc >> (8 * b)) & 0xFFu);
  }
}

// A small index with every lifecycle feature in the file: tombstones,
// stale update entries, appends.
IvfRabitqIndex BuildMutatedIndex(std::size_t bits_per_dim = 1) {
  Rng rng(404);
  Matrix data(150, 12);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 6;
  RabitqConfig rabitq;
  rabitq.bits_per_dim = bits_per_dim;
  EXPECT_TRUE(index.Build(data, ivf, rabitq).ok());
  std::vector<float> vec(12);
  for (std::uint32_t id = 0; id < 150; id += 5) {
    EXPECT_TRUE(index.Delete(id).ok());
  }
  for (std::uint32_t id = 1; id < 150; id += 31) {
    if (id % 5 == 0) continue;  // deleted above
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    EXPECT_TRUE(index.Update(id, vec.data()).ok());
  }
  for (int i = 0; i < 5; ++i) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    EXPECT_TRUE(index.Add(vec.data()).ok());
  }
  return index;
}

// If a corrupted file loaded "successfully", the result must still be a
// self-consistent index: accounting adds up and a full-probe search runs
// without crashing.
void ExpectLoadedIndexIsConsistent(const IvfRabitqIndex& index) {
  ASSERT_GT(index.num_lists(), 0u);
  EXPECT_LE(index.live_size(), index.size());
  std::size_t live = 0, dead = 0;
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    EXPECT_LE(index.list_tombstones(l), index.list_ids(l).size());
    EXPECT_EQ(index.list_ids(l).size(), index.list_codes(l).size());
    live += index.list_ids(l).size() - index.list_tombstones(l);
    dead += index.list_tombstones(l);
  }
  EXPECT_EQ(live, index.live_size());
  EXPECT_EQ(dead, index.num_tombstones());
  std::vector<float> query(index.dim(), 0.25f);
  SearchOptions params;
  params.k = 5;
  params.nprobe = index.num_lists();
  params.seed = 1;
  const SearchResponse response = index.Search({query.data(), params});
  EXPECT_TRUE(response.ok());
  for (const Neighbor& nb : response.neighbors) {
    EXPECT_FALSE(index.IsDeleted(nb.second));
  }
}

// Truncations and bit flips run at 1 and 4 bits per dimension, so they
// also land in the low bit planes and the multi-bit factor arrays.
class SnapshotFuzzWidthTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Widths, SnapshotFuzzWidthTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST_P(SnapshotFuzzWidthTest, V2TruncationsFailClosed) {
  const std::string path = TempPath("fuzz_truncate.rbq");
  ASSERT_TRUE(BuildMutatedIndex(GetParam()).Save(path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Every header-region prefix, then a deterministic sample of the rest.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len < 64; ++len) lengths.push_back(len);
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(64 + rng.UniformInt(bytes.size() - 64 - 1));
  }
  lengths.push_back(bytes.size() - 1);  // one byte short

  const std::string mutant = TempPath("fuzz_truncate_mutant.rbq");
  for (const std::size_t len : lengths) {
    WriteFileBytes(mutant,
                   {bytes.begin(), bytes.begin() + static_cast<long>(len)});
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "truncation to " << len << " of " << bytes.size()
        << " bytes loaded successfully";
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

TEST_P(SnapshotFuzzWidthTest, V2BitFlipsNeverCrashAndHeaderFlipsFailClosed) {
  const std::string path = TempPath("fuzz_flip.rbq");
  ASSERT_TRUE(BuildMutatedIndex(GetParam()).Save(path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);

  // Every bit of the header region (magic + version + config), then a
  // deterministic sample across the whole payload.
  std::vector<std::pair<std::size_t, int>> flips;
  for (std::size_t off = 0; off < 48; ++off) {
    for (int bit = 0; bit < 8; ++bit) flips.emplace_back(off, bit);
  }
  Rng rng(11);
  for (int i = 0; i < 256; ++i) {
    flips.emplace_back(rng.UniformInt(bytes.size()),
                       static_cast<int>(rng.UniformInt(8)));
  }

  const std::string mutant = TempPath("fuzz_flip_mutant.rbq");
  for (const auto& [off, bit] : flips) {
    std::vector<unsigned char> corrupted = bytes;
    corrupted[off] ^= static_cast<unsigned char>(1u << bit);
    WriteFileBytes(mutant, corrupted);
    IvfRabitqIndex loaded;
    const Status status = loaded.Load(mutant);  // must not crash or OOM
    if (off < 12) {
      // Magic or version damage must always be rejected.
      EXPECT_FALSE(status.ok()) << "header flip at " << off << ":" << bit;
    } else if (status.ok()) {
      ExpectLoadedIndexIsConsistent(loaded);
    }
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

// The v3 metric field (u32 at offset 12, right after magic + version) is
// the headline bugfix surface: every in-range value loads an index SERVING
// that metric, every out-of-range value is rejected -- BEFORE the O(B^3)
// rotator rebuild ever runs. (The v6 factors were derived under the
// metric the file was written with, so a patched in-range value loads
// with the writer's factor algebra; the index stays structurally
// consistent, which is what this fuzzer checks.)
TEST(SnapshotFuzzTest, V3MetricByteInRangeLoadsOutOfRangeFailsClosed) {
  const std::string path = TempPath("fuzz_metric.rbq");
  ASSERT_TRUE(BuildMutatedIndex().Save(path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);
  constexpr std::size_t kMetricOffset = 12;  // magic(8) + version(4)
  ASSERT_EQ(bytes[kMetricOffset], 0u) << "golden writer saved non-L2?";

  const std::string mutant = TempPath("fuzz_metric_mutant.rbq");
  const Metric kWant[] = {Metric::kL2, Metric::kInnerProduct, Metric::kCosine};
  for (std::uint32_t value = 0; value <= kMaxMetricValue; ++value) {
    std::vector<unsigned char> patched = bytes;
    patched[kMetricOffset] = static_cast<unsigned char>(value);
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    ASSERT_TRUE(loaded.Load(mutant).ok()) << "metric value " << value;
    EXPECT_EQ(loaded.metric(), kWant[value]);
    ExpectLoadedIndexIsConsistent(loaded);
  }
  for (const std::uint32_t value :
       {kMaxMetricValue + 1, std::uint32_t{17}, std::uint32_t{255}}) {
    std::vector<unsigned char> patched = bytes;
    patched[kMetricOffset] = static_cast<unsigned char>(value);
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "out-of-range metric " << value << " loaded";
  }
  // High bytes of the u32 too: any of them non-zero is out of range.
  for (std::size_t byte = 1; byte < 4; ++byte) {
    std::vector<unsigned char> patched = bytes;
    patched[kMetricOffset + byte] = 1;
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "metric high byte " << byte << " loaded";
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

// The rotator-kind field (u32 at offset 40, after metric + dim + bits +
// eps0 + query_bits) gates the O(B^3) rotator rebuild: every in-range value
// loads a self-consistent index with that rotator, every out-of-range value
// is rejected with "corrupt rotator kind" before the rebuild runs.
TEST(SnapshotFuzzTest, RotatorKindByteInRangeLoadsOutOfRangeFailsClosed) {
  const std::string path = TempPath("fuzz_rotator.rbq");
  ASSERT_TRUE(BuildMutatedIndex().Save(path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);
  // magic(8) + version(4) + metric(4) + dim(8) + total_bits(8) + eps0(4) +
  // query_bits(4).
  constexpr std::size_t kRotatorOffset = 40;
  ASSERT_EQ(bytes[kRotatorOffset],
            static_cast<unsigned char>(RotatorKind::kDense))
      << "golden writer saved a non-default rotator?";

  const std::string mutant = TempPath("fuzz_rotator_mutant.rbq");
  for (const RotatorKind kind :
       {RotatorKind::kDense, RotatorKind::kFht, RotatorKind::kIdentity}) {
    std::vector<unsigned char> patched = bytes;
    patched[kRotatorOffset] = static_cast<unsigned char>(kind);
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    ASSERT_TRUE(loaded.Load(mutant).ok())
        << "rotator kind " << static_cast<int>(kind);
    EXPECT_EQ(loaded.encoder().config().rotator, kind);
    ExpectLoadedIndexIsConsistent(loaded);
  }
  for (const unsigned char value : {3, 17, 255}) {
    std::vector<unsigned char> patched = bytes;
    patched[kRotatorOffset] = value;
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "out-of-range rotator kind " << static_cast<int>(value)
        << " loaded";
  }
  // High bytes of the u32: any of them non-zero is out of range.
  for (std::size_t byte = 1; byte < 4; ++byte) {
    std::vector<unsigned char> patched = bytes;
    patched[kRotatorOffset + byte] = 1;
    FixupChecksum(&patched);
    WriteFileBytes(mutant, patched);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "rotator high byte " << byte << " loaded";
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

// The v5 CRC-32 footer: corrupting ANY body byte -- including raw vector
// payload, which no pre-v5 structural check could detect -- fails closed
// with a checksum error, as does corrupting the footer itself. Loading a
// patched body requires recomputing the footer (what FixupChecksum, and
// only FixupChecksum, does for the header fuzzers above).
TEST(SnapshotFuzzTest, V5ChecksumCatchesBodyCorruption) {
  const std::string path = TempPath("fuzz_crc.rbq");
  ASSERT_TRUE(BuildMutatedIndex().Save(path).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 16u);
  {
    // The writer's own footer must agree with the recomputation the fuzzers
    // rely on -- pins the checksum coverage ([12, size - 4)) itself.
    std::vector<unsigned char> refooted = bytes;
    FixupChecksum(&refooted);
    EXPECT_EQ(refooted, bytes) << "footer does not match recomputed CRC";
  }

  const std::string mutant = TempPath("fuzz_crc_mutant.rbq");
  Rng rng(33);
  for (int i = 0; i < 64; ++i) {
    std::vector<unsigned char> corrupted = bytes;
    const std::size_t off = 12 + rng.UniformInt(bytes.size() - 16);
    corrupted[off] ^= static_cast<unsigned char>(1u << rng.UniformInt(8));
    WriteFileBytes(mutant, corrupted);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok())
        << "body flip at " << off << " loaded despite checksum";
  }
  for (std::size_t b = 1; b <= 4; ++b) {
    std::vector<unsigned char> corrupted = bytes;
    corrupted[bytes.size() - b] ^= 0x01;
    WriteFileBytes(mutant, corrupted);
    IvfRabitqIndex loaded;
    EXPECT_FALSE(loaded.Load(mutant).ok()) << "footer flip loaded";
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

TEST(SnapshotFuzzTest, ShardedManifestCorruptionFailsClosed) {
  const std::string dir =
      ::testing::TempDir() + "/fuzz_sharded_snapshot";
  std::filesystem::remove_all(dir);
  {
    Rng rng(21);
    Matrix data(120, 8);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.data()[i] = static_cast<float>(rng.Gaussian());
    }
    ShardedIndex index;
    ShardedConfig config;
    config.num_shards = 3;
    config.ivf.num_lists = 4;
    ASSERT_TRUE(index.Build(data, config).ok());
    for (std::uint32_t id = 0; id < 120; id += 9) {
      ASSERT_TRUE(index.Delete(id).ok());
    }
    ASSERT_TRUE(index.Save(dir).ok());
  }
  const std::string manifest = dir + "/MANIFEST";
  const std::vector<unsigned char> bytes = ReadFileBytes(manifest);
  ASSERT_GT(bytes.size(), 12u);

  // Any manifest truncation fails closed (step > 1 keeps the test quick;
  // the offsets still sweep header, counts, and map regions).
  for (std::size_t len = 0; len < bytes.size(); len += 13) {
    WriteFileBytes(manifest,
                   {bytes.begin(), bytes.begin() + static_cast<long>(len)});
    ShardedIndex loaded;
    EXPECT_FALSE(loaded.Load(dir).ok()) << "manifest truncated to " << len;
  }

  // Bit flips never crash; structural damage (shard count, id space, map
  // entries) is caught by the bijection and size cross-checks.
  Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    std::vector<unsigned char> corrupted = bytes;
    const std::size_t off = rng.UniformInt(bytes.size());
    corrupted[off] ^= static_cast<unsigned char>(1u << rng.UniformInt(8));
    WriteFileBytes(manifest, corrupted);
    ShardedIndex loaded;
    const Status status = loaded.Load(dir);  // must not crash
    if (status.ok()) {
      // Payload-only damage: the index must still be self-consistent.
      EXPECT_EQ(loaded.num_shards(), 3u);
      EXPECT_LE(loaded.live_size(), loaded.size());
    }
  }
  WriteFileBytes(manifest, bytes);

  // A missing or truncated shard blob fails closed too.
  {
    const std::string blob = dir + "/shard_0001.rbq";
    const std::vector<unsigned char> blob_bytes = ReadFileBytes(blob);
    WriteFileBytes(blob, {blob_bytes.begin(),
                          blob_bytes.begin() +
                              static_cast<long>(blob_bytes.size() / 2)});
    ShardedIndex loaded;
    EXPECT_FALSE(loaded.Load(dir).ok()) << "truncated shard blob loaded";
    std::filesystem::remove(blob);
    ShardedIndex loaded2;
    EXPECT_FALSE(loaded2.Load(dir).ok()) << "missing shard blob loaded";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rabitq
