// Tests for binary serialization: primitive round trips, header validation,
// IvfRabitqIndex save/load fidelity (identical search results), corruption
// rejection, and incremental Add after build/load.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "util/prng.h"
#include "util/serialize.h"

namespace rabitq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinarySerializeTest, PrimitiveRoundTrip) {
  const std::string path = TempPath("prim.bin");
  {
    std::unique_ptr<BinaryWriter> writer;
    ASSERT_TRUE(BinaryWriter::Open(path, &writer).ok());
    ASSERT_TRUE(writer->WriteU32(0xDEADBEEF).ok());
    ASSERT_TRUE(writer->WriteU64(0x0123456789ABCDEFULL).ok());
    ASSERT_TRUE(writer->WriteF32(3.25f).ok());
    const std::uint32_t arr[3] = {7, 8, 9};
    ASSERT_TRUE(writer->WriteArray(arr, 3).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  std::unique_ptr<BinaryReader> reader;
  ASSERT_TRUE(BinaryReader::Open(path, &reader).ok());
  std::uint32_t u32;
  std::uint64_t u64;
  float f32;
  std::vector<std::uint32_t> arr;
  ASSERT_TRUE(reader->ReadU32(&u32).ok());
  ASSERT_TRUE(reader->ReadU64(&u64).ok());
  ASSERT_TRUE(reader->ReadF32(&f32).ok());
  ASSERT_TRUE((reader->ReadArray<std::uint32_t>(&arr)).ok());
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(f32, 3.25f);
  EXPECT_EQ(arr, (std::vector<std::uint32_t>{7, 8, 9}));
  // Reading past the end fails cleanly.
  EXPECT_FALSE(reader->ReadU32(&u32).ok());
  std::remove(path.c_str());
}

TEST(BinarySerializeTest, HeaderValidation) {
  const std::string path = TempPath("header.bin");
  const char magic[8] = {'T', 'E', 'S', 'T', '0', '0', '0', '1'};
  {
    std::unique_ptr<BinaryWriter> writer;
    ASSERT_TRUE(BinaryWriter::Open(path, &writer).ok());
    ASSERT_TRUE(WriteHeader(writer.get(), magic, 3).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  {
    std::unique_ptr<BinaryReader> reader;
    ASSERT_TRUE(BinaryReader::Open(path, &reader).ok());
    EXPECT_TRUE(ExpectHeader(reader.get(), magic, 3).ok());
  }
  {
    std::unique_ptr<BinaryReader> reader;
    ASSERT_TRUE(BinaryReader::Open(path, &reader).ok());
    const char wrong[8] = {'W', 'R', 'O', 'N', 'G', '!', '!', '!'};
    EXPECT_FALSE(ExpectHeader(reader.get(), wrong, 3).ok());
  }
  {
    std::unique_ptr<BinaryReader> reader;
    ASSERT_TRUE(BinaryReader::Open(path, &reader).ok());
    EXPECT_FALSE(ExpectHeader(reader.get(), magic, 4).ok());  // version
  }
  std::remove(path.c_str());
}

TEST(BinarySerializeTest, ArraySanityBoundRejectsHugeCounts) {
  const std::string path = TempPath("huge.bin");
  {
    std::unique_ptr<BinaryWriter> writer;
    ASSERT_TRUE(BinaryWriter::Open(path, &writer).ok());
    ASSERT_TRUE(writer->WriteU64(std::uint64_t{1} << 50).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  std::unique_ptr<BinaryReader> reader;
  ASSERT_TRUE(BinaryReader::Open(path, &reader).ok());
  std::vector<std::uint32_t> arr;
  EXPECT_FALSE((reader->ReadArray<std::uint32_t>(&arr, 1000)).ok());
  std::remove(path.c_str());
}

class IvfSerializeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 40;

  void SetUp() override {
    Rng rng(77);
    data_.Reset(kN, kDim);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_.data()[i] = static_cast<float>(rng.Gaussian());
    }
    queries_.Reset(10, kDim);
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      queries_.data()[i] = static_cast<float>(rng.Gaussian());
    }
    IvfConfig ivf;
    ivf.num_lists = 16;
    ASSERT_TRUE(index_.Build(data_, ivf, RabitqConfig{}).ok());
  }

  Matrix data_;
  Matrix queries_;
  IvfRabitqIndex index_;
};

TEST_F(IvfSerializeTest, SaveLoadRoundTripPreservesSearchResults) {
  const std::string path = TempPath("index.rbq");
  ASSERT_TRUE(index_.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), index_.size());
  EXPECT_EQ(loaded.dim(), index_.dim());
  EXPECT_EQ(loaded.num_lists(), index_.num_lists());
  EXPECT_EQ(loaded.encoder().total_bits(), index_.encoder().total_bits());

  SearchOptions params;
  params.k = 10;
  params.nprobe = 16;
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    // Same rng stream -> identical randomized rounding -> identical results.
    Rng rng_a(900 + q), rng_b(900 + q);
    params.seed = rng_a.NextU64();
    const SearchResponse original_response =
        index_.Search({queries_.Row(q), params});
    params.seed = rng_b.NextU64();
    const SearchResponse restored_response =
        loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(original_response.ok());
    ASSERT_TRUE(restored_response.ok());
    const std::vector<Neighbor>& original = original_response.neighbors;
    const std::vector<Neighbor>& restored = restored_response.neighbors;
    ASSERT_EQ(original.size(), restored.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].second, restored[i].second);
      EXPECT_FLOAT_EQ(original[i].first, restored[i].first);
    }
  }
  std::remove(path.c_str());
}

TEST_F(IvfSerializeTest, LoadedStoreMatchesByteForByte) {
  const std::string path = TempPath("index2.rbq");
  ASSERT_TRUE(index_.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  for (std::size_t l = 0; l < index_.num_lists(); ++l) {
    ASSERT_EQ(loaded.list_ids(l), index_.list_ids(l));
    const RabitqCodeStore& a = index_.list_codes(l);
    const RabitqCodeStore& b = loaded.list_codes(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      // o_o and dist_to_centroid, through their resident images.
      EXPECT_FLOAT_EQ(a.f_inv_oo_data()[i], b.f_inv_oo_data()[i]);
      EXPECT_FLOAT_EQ(a.f_cross_data()[i], b.f_cross_data()[i]);
      EXPECT_EQ(a.bit_count(i), b.bit_count(i));
      EXPECT_EQ(a.factors(i), b.factors(i));
      std::vector<std::uint64_t> a_bits(a.words_per_code());
      std::vector<std::uint64_t> b_bits(b.words_per_code());
      a.UnpackPlane(i, 0, a_bits.data());
      b.UnpackPlane(i, 0, b_bits.data());
      for (std::size_t w = 0; w < a.words_per_code(); ++w) {
        ASSERT_EQ(a_bits[w], b_bits[w]);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(IvfSerializeTest, TruncatedFileRejected) {
  const std::string path = TempPath("trunc.rbq");
  ASSERT_TRUE(index_.Save(path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  std::vector<char> buf(size / 2);
  f = std::fopen(path.c_str(), "rb");
  ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);

  IvfRabitqIndex loaded;
  EXPECT_FALSE(loaded.Load(path).ok());
  std::remove(path.c_str());
}

TEST_F(IvfSerializeTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.rbq");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 1000; ++i) std::fputc(i & 0xFF, f);
  std::fclose(f);
  IvfRabitqIndex loaded;
  EXPECT_FALSE(loaded.Load(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.Load("/nonexistent/file.rbq").ok());
}

TEST_F(IvfSerializeTest, AddInsertsSearchableVector) {
  Rng rng(5);
  std::vector<float> novel(kDim);
  for (auto& v : novel) v = static_cast<float>(rng.Gaussian()) + 10.0f;
  std::uint32_t id = 0;
  ASSERT_TRUE(index_.Add(novel.data(), &id).ok());
  EXPECT_EQ(id, kN);
  EXPECT_EQ(index_.size(), kN + 1);

  SearchOptions params;
  params.k = 1;
  params.nprobe = index_.num_lists();
  params.seed = rng.NextU64();
  const SearchResponse response = index_.Search({novel.data(), params});
  ASSERT_TRUE(response.ok());
  const std::vector<Neighbor>& result = response.neighbors;
  ASSERT_FALSE(result.empty());
  EXPECT_EQ(result[0].second, id);
  EXPECT_NEAR(result[0].first, 0.0f, 1e-4f);
}

TEST_F(IvfSerializeTest, AddSurvivesSaveLoad) {
  Rng rng(6);
  std::vector<float> novel(kDim, 2.5f);
  ASSERT_TRUE(index_.Add(novel.data(), nullptr).ok());
  const std::string path = TempPath("with_add.rbq");
  ASSERT_TRUE(index_.Save(path).ok());
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), kN + 1);
  // And the loaded index accepts further inserts.
  std::uint32_t id = 0;
  ASSERT_TRUE(loaded.Add(novel.data(), &id).ok());
  EXPECT_EQ(id, kN + 1);
  std::remove(path.c_str());
}

TEST(IvfSerializeStandaloneTest, SaveUnbuiltIndexFails) {
  IvfRabitqIndex index;
  EXPECT_EQ(index.Save(TempPath("nope.rbq")).code(),
            StatusCode::kFailedPrecondition);
  std::vector<float> v(8, 0.0f);
  EXPECT_EQ(index.Add(v.data()).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rabitq
