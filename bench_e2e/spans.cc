#include "spans.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace qbs::e2e {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// The value of a "Key:\t<n> kB" line of /proc/self/status, in MiB.
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

Usage Usage::Now() {
  Usage u;
  u.wall_s = NowSec();
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    u.user_s = Seconds(ru.ru_utime);
    u.sys_s = Seconds(ru.ru_stime);
  }
  u.rss_mb = ProcStatusMb("VmRSS");
  return u;
}

double PeakRssMb() { return ProcStatusMb("VmHWM"); }

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

namespace {

// Per-thread cap: a closed loop at a million selects a second would
// otherwise fill memory with spans; later spans of a full thread are
// dropped (the summaries only need a sample).
constexpr size_t kMaxSpansPerThread = size_t{1} << 18;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};

struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  uint64_t current = 0;  // innermost open span on this thread
};
thread_local ThreadState t_state;

ThreadBuffer* LocalBuffer() {
  if (t_state.buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = g_next_tid.fetch_add(1);
    buffer->spans.reserve(1 << 12);
    t_state.buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(buffer));
  }
  return t_state.buffer;
}

}  // namespace

void EnableSpans(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) : name_(name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  request_ = request;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.current;
  t_state.current = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const uint64_t end = NowNs();
  t_state.current = parent_;
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) return;
  buffer->spans.push_back(
      SpanRecord{name_, start_ns_, end, id_, parent_, request_, buffer->tid});
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, SpanTotals> Summarize(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> child_ns;  // parent id -> covered
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    const uint64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t covered =
        it == child_ns.end() ? 0 : std::min(it->second, dur);
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - covered) / 1e3;
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  // At most ~4k events per span name, evenly strided, keep the file
  // loadable in a trace viewer.
  constexpr uint64_t kPerName = 4'000;
  std::unordered_map<std::string, uint64_t> count, seen;
  for (const SpanRecord& s : spans) ++count[s.name];
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const SpanRecord& s : spans) {
    const uint64_t stride = (count[s.name] + kPerName - 1) / kPerName;
    if (seen[s.name]++ % stride != 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace qbs::e2e
