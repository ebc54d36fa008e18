// Micro-benchmarks for the hot query-phase kernels (Section 3.3 efficiency
// claims plus this repo's fused estimate pipeline):
//   * estimate+bound assembly: the legacy per-code path (sqrt + divide,
//     the pre-factor-precomputation code) vs the fused scalar
//     reference vs the fused AVX2 kernel -- the headline `speedup_assemble`
//     is fused vs the scalar reference, `speedup_assemble_vs_legacy` shows
//     the full hoisting win;
//   * end-to-end per-list scan: fast-scan accumulation + assembly +
//     candidate selection, two-pass (estimate everything, then re-scan the
//     buffers) vs the fused in-kernel-pruned single pass;
//   * the bitwise source of a block's sums (B_q and+popcount passes per
//     code, the path behind B_q >= 7), per code over the 4096-code list;
//   * per-list query preparation (rotated path, B_q = 4), per probed list;
//   * the bitwise single-code estimator (B_q and+popcount passes) vs PQ's
//     LUT-in-RAM ADC (the paper reports ~3x in RaBitQ's favor);
//   * the shared fast-scan LUT kernel, AVX2 vs scalar;
//   * rotation costs: dense mat-vec vs the O(B log B) FHT extension.
//
// Usage: bench_kernels [--json [PATH]]
//   Prints a human-readable table; with --json additionally writes the
//   machine-readable results to PATH (default BENCH_kernels.json) so CI can
//   archive the perf trajectory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "core/rotator.h"
#include "quant/fastscan.h"
#include "util/bit_ops.h"
#include "util/prng.h"
#include "util/timer.h"

namespace rabitq {
namespace bench {
namespace {

constexpr std::size_t kDim = 128;   // SIFT-like
constexpr std::size_t kBits = 128;  // RaBitQ code length
constexpr std::size_t kScanCodes = 4096;  // 128 full blocks per "list"
// Unpruned assembly: +inf threshold (no lower bound exceeds it), all lanes.
constexpr float kNoPrune = std::numeric_limits<float>::infinity();
constexpr std::uint32_t kAllLanes = 0xFFFFFFFFu;

// Keeps results alive across optimization like benchmark::DoNotOptimize.
volatile float g_sink_f = 0.0f;
volatile std::uint32_t g_sink_u = 0;

/// ns per op for `fn` (one call = `ops` logical operations): calibrates the
/// iteration count to ~0.2 s of wall time, then measures.
template <typename Fn>
double NsPerOp(Fn&& fn, std::size_t ops) {
  fn();  // warm caches and page in
  std::size_t iters = 1;
  double seconds = 0.0;
  for (;;) {
    WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) fn();
    seconds = timer.ElapsedSeconds();
    if (seconds >= 0.2 || iters >= (1u << 30)) break;
    const double target = 0.25;
    const std::size_t next =
        seconds <= 1e-6 ? iters * 64
                        : static_cast<std::size_t>(
                              static_cast<double>(iters) * target / seconds) +
                              1;
    iters = std::max(next, iters * 2);
  }
  return seconds * 1e9 / (static_cast<double>(iters) * static_cast<double>(ops));
}

struct Row {
  std::string name;
  double ns_per_op;
  std::string unit;  // what one op is
};

// Half-width of the confidence interval on <o,q> (Eq. 16), computed per
// code as the old estimator did.
inline float LegacyIpErrorBound(float o_o, float epsilon0,
                                std::size_t total_bits) {
  const float o_o_sq = std::max(o_o * o_o, 1e-12f);
  return std::sqrt((1.0f - o_o_sq) / o_o_sq) * epsilon0 /
         std::sqrt(static_cast<float>(total_bits - 1));
}

// The pre-factor-precomputation assembly of the old estimator: per code,
// the primaries (dist_to_centroid, o_o, bit_count; the store keeps only
// their derived factors, so the fixture holds them), then a divide and
// (inside LegacyIpErrorBound) a sqrt + divide. Kept here as the bench
// baseline.
inline float LegacyAssemble(const QuantizedQuery& query,
                            const CodePrimaries& code, std::uint32_t s,
                            float epsilon0, float* lb_out) {
  const float d_c = code.dist_to_centroid;
  if (d_c == 0.0f) {
    const float d = query.q_dist * query.q_dist;
    *lb_out = d;
    return d;
  }
  if (query.q_dist == 0.0f) {
    const float d = d_c * d_c;
    *lb_out = d;
    return d;
  }
  const float pc = static_cast<float>(code.bit_count);
  const float x_qbar =
      query.ip_scale * static_cast<float>(s) + query.pop_scale * pc + query.bias;
  const float o_o = std::max(code.o_o, 1e-9f);
  const float ip = x_qbar / o_o;
  const float cross = 2.0f * d_c * query.q_dist;
  const float dist = d_c * d_c + query.q_dist * query.q_dist - cross * ip;
  const float ip_error = LegacyIpErrorBound(o_o, epsilon0, query.total_bits);
  *lb_out = dist - cross * ip_error;
  return dist;
}

struct ScanFixture {
  RabitqEncoder encoder;
  RabitqCodeStore store;
  std::vector<CodePrimaries> primaries;  // per code, for LegacyAssemble
  QuantizedQuery query;
  std::vector<std::uint32_t> sums;  // per-code fast-scan sums, precomputed
};

void BuildScanFixture(ScanFixture* fx) {
  Rng rng(42);
  RabitqConfig config;
  config.total_bits = kBits;
  if (!fx->encoder.Init(kDim, config).ok()) {
    std::fprintf(stderr, "[bench] encoder init failed\n");
    std::exit(1);
  }
  fx->store.Init(fx->encoder.total_bits());
  std::vector<float> centroid(kDim);
  for (auto& v : centroid) v = static_cast<float>(rng.Gaussian()) * 0.5f;
  std::vector<float> vec(kDim);
  for (std::size_t i = 0; i < kScanCodes; ++i) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    EncodedCode code;
    fx->encoder.Encode(vec.data(), centroid.data(), &code);
    fx->primaries.push_back(code.primaries);
    if (!fx->encoder.EncodeAppend(vec.data(), centroid.data(), &fx->store)
             .ok()) {
      std::fprintf(stderr, "[bench] encode failed\n");
      std::exit(1);
    }
  }
  for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
  if (!PrepareQuery(fx->encoder, vec.data(), centroid.data(), &rng,
                    &fx->query)
           .ok() ||
      !fx->query.has_exact_luts) {
    std::fprintf(stderr, "[bench] query preparation failed\n");
    std::exit(1);
  }
  // Precompute the fast-scan sums once so the assembly benchmarks time the
  // float assembly alone.
  const FastScanCodes& packed = fx->store.packed();
  fx->sums.resize(packed.num_blocks * kFastScanBlockSize);
  for (std::size_t b = 0; b < packed.num_blocks; ++b) {
    FastScanAccumulateBlock(packed.BlockPtr(b), packed.num_segments,
                            fx->query.luts.data(),
                            fx->sums.data() + b * kFastScanBlockSize);
  }
}

void RunAssemblyBenches(const ScanFixture& fx, std::vector<Row>* rows,
                        double* speedup_assemble,
                        double* speedup_assemble_vs_legacy) {
  const std::size_t num_blocks = fx.store.packed().num_blocks;
  std::vector<float> est(kScanCodes), lb(kScanCodes);
  const float eps0 = 1.9f;

  const double legacy_ns = NsPerOp(
      [&] {
        for (std::size_t i = 0; i < kScanCodes; ++i) {
          est[i] = LegacyAssemble(fx.query, fx.primaries[i], fx.sums[i], eps0,
                                  &lb[i]);
        }
        g_sink_f = g_sink_f + est[0] + lb[kScanCodes - 1];
      },
      kScanCodes);
  rows->push_back({"assemble_legacy", legacy_ns, "code"});

  const double scalar_ns = NsPerOp(
      [&] {
        for (std::size_t b = 0; b < num_blocks; ++b) {
          const std::size_t begin = b * kFastScanBlockSize;
          EstimateBlockFusedPrunedScalar(fx.query, fx.store, b,
                                         fx.sums.data() + begin, eps0, kNoPrune,
                                         /*dead=*/nullptr, est.data() + begin,
                                         lb.data() + begin, kAllLanes);
        }
        g_sink_f = g_sink_f + est[0] + lb[kScanCodes - 1];
      },
      kScanCodes);
  rows->push_back({"assemble_scalar", scalar_ns, "code"});

  const double fused_ns = NsPerOp(
      [&] {
        for (std::size_t b = 0; b < num_blocks; ++b) {
          const std::size_t begin = b * kFastScanBlockSize;
          EstimateBlockFusedPruned(fx.query, fx.store, b,
                                   fx.sums.data() + begin, eps0, kNoPrune,
                                   /*dead=*/nullptr, est.data() + begin,
                                   lb.data() + begin, kAllLanes);
        }
        g_sink_f = g_sink_f + est[0] + lb[kScanCodes - 1];
      },
      kScanCodes);
  rows->push_back({"assemble_fused", fused_ns, "code"});

  *speedup_assemble = scalar_ns / fused_ns;
  *speedup_assemble_vs_legacy = legacy_ns / fused_ns;
}

void RunScanBenches(const ScanFixture& fx, std::vector<Row>* rows,
                    double* speedup_scan) {
  const FastScanCodes& packed = fx.store.packed();
  const std::size_t num_blocks = packed.num_blocks;
  std::vector<float> est(kScanCodes), lb(kScanCodes);
  const float eps0 = 1.9f;

  // A realistic pruning threshold: the 5th-percentile lower bound, i.e.
  // ~5% of candidates survive to re-ranking (the regime the error-bound
  // policy operates in at steady state).
  {
    std::uint32_t sums[kFastScanBlockSize];
    for (std::size_t b = 0; b < num_blocks; ++b) {
      FastScanAccumulateBlock(packed.BlockPtr(b), packed.num_segments,
                              fx.query.luts.data(), sums);
      EstimateBlockFusedPrunedScalar(fx.query, fx.store, b, sums, eps0,
                                     kNoPrune, /*dead=*/nullptr,
                                     est.data() + b * kFastScanBlockSize,
                                     lb.data() + b * kFastScanBlockSize,
                                     kAllLanes);
    }
  }
  std::vector<float> sorted_lb = lb;
  std::sort(sorted_lb.begin(), sorted_lb.end());
  const float threshold = sorted_lb[kScanCodes / 20];

  // Two-pass baseline: estimate + bound every code into the buffers, then a
  // second full pass over lb to find survivors (the pre-PR selection shape,
  // with the legacy per-code assembly).
  const double twopass_ns = NsPerOp(
      [&] {
        std::uint32_t sums[kFastScanBlockSize];
        std::uint32_t survivors = 0;
        for (std::size_t b = 0; b < num_blocks; ++b) {
          FastScanAccumulateBlock(packed.BlockPtr(b), packed.num_segments,
                                  fx.query.luts.data(), sums);
          const std::size_t begin = b * kFastScanBlockSize;
          for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
            est[begin + k] =
                LegacyAssemble(fx.query, fx.primaries[begin + k], sums[k],
                               eps0, &lb[begin + k]);
          }
        }
        for (std::size_t i = 0; i < kScanCodes; ++i) {
          survivors += lb[i] <= threshold;
        }
        g_sink_u = g_sink_u + survivors;
      },
      kScanCodes);
  rows->push_back({"scan_per_list_twopass", twopass_ns, "code"});

  // Fused single pass: accumulate + assemble + in-kernel prune, walking
  // only surviving lanes.
  const double fused_ns = NsPerOp(
      [&] {
        std::uint32_t sums[kFastScanBlockSize];
        std::uint32_t survivors = 0;
        for (std::size_t b = 0; b < num_blocks; ++b) {
          PrefetchBlockData(fx.store, b + 1);
          FastScanAccumulateBlock(packed.BlockPtr(b), packed.num_segments,
                                  fx.query.luts.data(), sums);
          const std::size_t begin = b * kFastScanBlockSize;
          std::uint32_t mask = EstimateBlockFusedPruned(
              fx.query, fx.store, b, sums, eps0, threshold, nullptr,
              est.data() + begin, lb.data() + begin);
          while (mask != 0) {
            ++survivors;
            mask &= mask - 1;
          }
        }
        g_sink_u = g_sink_u + survivors;
      },
      kScanCodes);
  rows->push_back({"scan_per_list_fused", fused_ns, "code"});

  *speedup_scan = twopass_ns / fused_ns;
}

void RunBitwiseBlockBench(const ScanFixture& fx, std::vector<Row>* rows) {
  // The Eq. 22 source of a block's sums: B_q bitwise and+popcount passes
  // per code, which the scan takes at B_q >= 7 (no lossless LUTs). A copy
  // of the B_q = 4 query without its LUT flag takes that path here.
  const std::size_t num_blocks = fx.store.packed().num_blocks;
  QuantizedQuery bitwise = fx.query;
  bitwise.has_exact_luts = false;
  rows->push_back({"bitwise_block",
                   NsPerOp(
                       [&] {
                         std::uint32_t sums[kFastScanBlockSize];
                         for (std::size_t b = 0; b < num_blocks; ++b) {
                           AccumulateBlockSums(bitwise, fx.store, b, sums);
                           g_sink_u = g_sink_u + sums[b % kFastScanBlockSize];
                         }
                       },
                       kScanCodes),
                   "code"});
}

void RunQueryPrepareBench(const ScanFixture& fx, std::vector<Row>* rows) {
  // Per-list query preparation on the rotated path at B_q = 4, as the IVF
  // scan runs it for every probed list: subtract-and-scale, randomized
  // rounding under a per-list generator, bit planes and nibble LUTs.
  constexpr std::size_t kLists = 64;
  const std::size_t b = fx.encoder.total_bits();
  Rng rng(9);
  std::vector<float> rotated_query(b);
  std::vector<float> rotated_centroids(kLists * b);
  std::vector<float> q_dists(kLists);
  for (auto& v : rotated_query) v = static_cast<float>(rng.Gaussian());
  for (std::size_t l = 0; l < kLists; ++l) {
    float dist_sq = 0.0f;
    for (std::size_t i = 0; i < b; ++i) {
      const float c = static_cast<float>(rng.Gaussian()) * 0.5f;
      rotated_centroids[l * b + i] = c;
      dist_sq += (rotated_query[i] - c) * (rotated_query[i] - c);
    }
    q_dists[l] = std::sqrt(dist_sq);
  }
  QuantizedQuery qq;
  rows->push_back(
      {"query_prepare",
       NsPerOp(
           [&] {
             for (std::size_t l = 0; l < kLists; ++l) {
               Rng list_rng(MixSeed(7, l));
               if (!PrepareQueryFromRotated(
                        fx.encoder, rotated_query.data(),
                        rotated_centroids.data() + l * b, q_dists[l],
                        &list_rng, &qq)
                        .ok()) {
                 std::fprintf(stderr, "[bench] query preparation failed\n");
                 std::exit(1);
               }
               g_sink_u = g_sink_u + qq.sum_qu;
             }
           },
           kLists),
       "list"});
}

void RunSingleCodeBenches(std::vector<Row>* rows) {
  constexpr int kBq = 4;
  const std::size_t words = WordsForBits(kBits);
  Rng rng(1);
  std::vector<std::uint64_t> code(words);
  std::vector<std::uint64_t> planes(kBq * words);
  for (auto& w : code) w = rng.NextU64();
  for (auto& w : planes) w = rng.NextU64();
  rows->push_back({"bitwise_single",
                   NsPerOp(
                       [&] {
                         g_sink_u = g_sink_u +
                                    BitPlaneDot(code.data(), planes.data(),
                                                kBq, words);
                       },
                       1),
                   "estimate"});

  // PQx8-single at the paper's default 2D bits: M = D/4 segments of 8 bits,
  // each estimate = M random float loads from a 256-entry LUT + adds.
  const std::size_t m = kDim / 4;
  std::vector<float> luts(m * 256);
  for (auto& v : luts) v = rng.UniformFloat();
  std::vector<std::uint8_t> pq_code(m);
  for (auto& c : pq_code) c = static_cast<std::uint8_t>(rng.UniformInt(256));
  rows->push_back({"pq_lut_in_ram_single",
                   NsPerOp(
                       [&] {
                         float acc = 0.0f;
                         for (std::size_t seg = 0; seg < m; ++seg) {
                           acc += luts[seg * 256 + pq_code[seg]];
                         }
                         g_sink_f = g_sink_f + acc;
                       },
                       1),
                   "estimate"});
}

void RunFastScanBenches(std::vector<Row>* rows) {
  const std::size_t segments = kBits / 4;
  Rng rng(3);
  std::vector<std::uint8_t> codes(kFastScanBlockSize * segments);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.UniformInt(16));
  FastScanCodes packed;
  PackFastScanCodes(codes.data(), kFastScanBlockSize, segments, &packed);
  AlignedVector<std::uint8_t> luts(segments * 16);
  for (auto& l : luts) l = static_cast<std::uint8_t>(rng.UniformInt(61));
  std::uint32_t out[kFastScanBlockSize];
  rows->push_back({"fastscan_block_simd",
                   NsPerOp(
                       [&] {
                         FastScanAccumulateBlock(packed.BlockPtr(0), segments,
                                                 luts.data(), out);
                         g_sink_u = g_sink_u + out[0];
                       },
                       kFastScanBlockSize),
                   "code"});
  rows->push_back({"fastscan_block_scalar",
                   NsPerOp(
                       [&] {
                         FastScanAccumulateBlockScalar(packed.BlockPtr(0),
                                                       segments, luts.data(),
                                                       out);
                         g_sink_u = g_sink_u + out[0];
                       },
                       kFastScanBlockSize),
                   "code"});
}

void RunRotatorBenches(std::vector<Row>* rows) {
  for (const RotatorKind kind : {RotatorKind::kDense, RotatorKind::kFht}) {
    std::unique_ptr<Rotator> rotator;
    if (!CreateRotator(kDim, 0, kind, 5, &rotator).ok()) continue;
    Rng rng(6);
    std::vector<float> in(kDim), out(rotator->padded_dim());
    for (auto& v : in) v = static_cast<float>(rng.Gaussian());
    rows->push_back(
        {kind == RotatorKind::kDense ? "rotate_dense_128" : "rotate_fht_128",
         NsPerOp(
             [&] {
               rotator->InverseRotate(in.data(), out.data());
               g_sink_f = g_sink_f + out[0];
             },
             1),
         "rotation"});
  }
}

void WriteJson(std::FILE* f, const std::vector<Row>& rows,
               double speedup_assemble, double speedup_assemble_vs_legacy,
               double speedup_scan) {
  std::fprintf(f,
               "{\"bench\":\"kernels\",\"dim\":%zu,\"bits\":%zu,"
               "\"codes\":%zu,\"simd\":\"%s\",\n \"rows\":[\n",
               kDim, kBits, kScanCodes,
#if defined(__AVX2__) && defined(__FMA__)
               "avx2+fma"
#else
               "scalar"
#endif
  );
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  {\"name\":\"%s\",\"ns_per_%s\":%.3f}%s\n",
                 rows[i].name.c_str(), rows[i].unit.c_str(),
                 rows[i].ns_per_op, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               " ],\n \"speedup_assemble\":%.2f,"
               "\"speedup_assemble_vs_legacy\":%.2f,"
               "\"speedup_scan\":%.2f}\n",
               speedup_assemble, speedup_assemble_vs_legacy, speedup_scan);
}

int Run(int argc, char** argv) {
  bool json = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[i + 1];
    }
  }

  ScanFixture fx;
  BuildScanFixture(&fx);

  std::vector<Row> rows;
  double speedup_assemble = 0.0, speedup_assemble_vs_legacy = 0.0,
         speedup_scan = 0.0;
  RunAssemblyBenches(fx, &rows, &speedup_assemble,
                     &speedup_assemble_vs_legacy);
  RunScanBenches(fx, &rows, &speedup_scan);
  RunBitwiseBlockBench(fx, &rows);
  RunQueryPrepareBench(fx, &rows);
  RunSingleCodeBenches(&rows);
  RunFastScanBenches(&rows);
  RunRotatorBenches(&rows);

  std::printf("%-24s %14s  per\n", "kernel", "ns/op");
  for (const Row& row : rows) {
    std::printf("%-24s %14.3f  %s\n", row.name.c_str(), row.ns_per_op,
                row.unit.c_str());
  }
  std::printf("speedup assemble fused vs scalar: %.2fx\n", speedup_assemble);
  std::printf("speedup assemble fused vs legacy: %.2fx\n",
              speedup_assemble_vs_legacy);
  std::printf("speedup per-list scan fused vs two-pass: %.2fx\n",
              speedup_scan);

  if (json) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot open %s\n", json_path.c_str());
      return 1;
    }
    WriteJson(f, rows, speedup_assemble, speedup_assemble_vs_legacy,
              speedup_scan);
    std::fclose(f);
    WriteJson(stdout, rows, speedup_assemble, speedup_assemble_vs_legacy,
              speedup_scan);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rabitq

int main(int argc, char** argv) { return rabitq::bench::Run(argc, argv); }
