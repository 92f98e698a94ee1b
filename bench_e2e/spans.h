// Bench-side measurement helpers for e2e_pipeline: process usage
// (rusage plus /proc/self/status, the PrintUsage idiom), latency
// percentiles, and spans recorded around calls into each layer.
//
// Spans live in per-thread buffers owned by a global list, so a span
// recorded on a server worker thread survives that thread. They are
// only recorded while EnableSpans(true) is in force (the --trace run);
// the untraced run pays one relaxed load per span site. Program tracing
// in src/obs is a separate mechanism and is left at its default.
#ifndef QBS_BENCH_E2E_SPANS_H_
#define QBS_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbs::e2e {

/// Seconds on the steady clock.
double NowSec();
/// Nanoseconds on the steady clock.
uint64_t NowNs();

/// Process-wide resource usage at one instant.
struct Usage {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  /// VmRSS: resident set now.
  double rss_mb = 0;
  static Usage Now();
  double cpu_s() const { return user_s + sys_s; }
};

/// VmHWM: the peak resident set of the process so far.
double PeakRssMb();

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// One completed span.
struct SpanRecord {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  /// Enclosing span on the same thread; 0 for a root.
  uint64_t parent = 0;
  /// Caller-chosen request id shared by the spans of one request.
  uint64_t request = 0;
  uint32_t tid = 0;
};

void EnableSpans(bool on);

/// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Every span recorded so far, from every thread. Call only while no
/// thread is recording.
std::vector<SpanRecord> CollectSpans();

/// Totals per span name. Self time is a span's duration minus the part
/// its child spans (same thread) cover.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  double mean_us() const { return count == 0 ? 0 : total_us / count; }
};
std::map<std::string, SpanTotals> Summarize(
    const std::vector<SpanRecord>& spans);

/// Writes Chrome trace_event JSON ("X" events, microseconds). Returns
/// false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace qbs::e2e

#endif  // QBS_BENCH_E2E_SPANS_H_
