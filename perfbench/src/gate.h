// The benchmark's correctness gate. Run outside the timed phases: probe
// queries searched exhaustively (nprobe = every list, eps0 override 50, as
// in the repository's oracle tests) must return exactly the top-k of the
// live set, and recall@k of the workload's own settings must stay at or
// above the workload's recorded floor.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/brute_force.h"

namespace perfbench {

/// Empty when `got` equals `want` element for element (ids and distances,
/// in order); otherwise a description of the first difference.
inline std::string CompareTopK(const std::vector<rabitq::Neighbor>& got,
                               const std::vector<rabitq::Neighbor>& want) {
  if (got.size() != want.size()) {
    return "returned " + std::to_string(got.size()) + " neighbors, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].second != want[i].second || got[i].first != want[i].first) {
      return "rank " + std::to_string(i) + ": got id " +
             std::to_string(got[i].second) + " at " +
             std::to_string(got[i].first) + ", expected id " +
             std::to_string(want[i].second) + " at " +
             std::to_string(want[i].first);
    }
  }
  return "";
}

/// |ids(got) ∩ ids(want)| / k.
inline double RecallAtK(const std::vector<rabitq::Neighbor>& got,
                        const std::vector<rabitq::Neighbor>& want,
                        std::size_t k) {
  std::unordered_set<std::uint32_t> truth;
  for (std::size_t i = 0; i < want.size() && i < k; ++i) {
    truth.insert(want[i].second);
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < got.size() && i < k; ++i) {
    hits += truth.count(got[i].second);
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

struct GateResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::string first_mismatch;
  double recall = 0.0;
  double recall_floor = 0.0;

  bool ok() const { return mismatched == 0 && recall >= recall_floor; }
};

/// Folds one exhaustive probe result into the gate.
inline void GateCheck(const std::vector<rabitq::Neighbor>& got,
                      const std::vector<rabitq::Neighbor>& want,
                      std::size_t query, GateResult* gate) {
  ++gate->checked;
  const std::string diff = CompareTopK(got, want);
  if (diff.empty()) return;
  if (gate->mismatched++ == 0) {
    gate->first_mismatch = "probe query " + std::to_string(query) + ": " + diff;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
