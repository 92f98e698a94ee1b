// The --trace run's per-layer replays: each layer's public functions
// called from the bench on the workload's own inputs, timed with spans.
#ifndef QBS_BENCH_E2E_LAYERS_H_
#define QBS_BENCH_E2E_LAYERS_H_

#include <map>
#include <string>

#include "fleet.h"

namespace qbs::e2e {

/// Per-layer numbers by metric name.
struct LayerValue {
  double value = 0;
  const char* unit = "";
};
using LayerMetrics = std::map<std::string, LayerValue>;

struct LayerInputs {
  const WorkloadShape* shape = nullptr;
  const Fleet* fleet = nullptr;
  Pipeline* pipeline = nullptr;
  const QueryStream* queries = nullptr;
  /// Scratch directory for the store the mstore replay writes.
  std::string workdir;
  /// Remote tier p50 of the traced measurement, for remote.transport_share.
  double remote_p50_us = 0;
  /// Scales every replay's time budget (the smoke test shrinks them).
  double budget_scale = 1;
};

/// Runs every replay and adds its metrics to `out`. Returns a non-OK
/// status when a replayed call fails.
Status ReplayLayers(const LayerInputs& in, LayerMetrics* out);

}  // namespace qbs::e2e

#endif  // QBS_BENCH_E2E_LAYERS_H_
