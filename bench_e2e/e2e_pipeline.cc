// e2e_pipeline: one timed run of the paper's whole pipeline on one
// workload — sample a database fleet through its search interface, pack
// the models, cold-start a broker from the store, then answer Select in
// process (local), over loopback (remote) and through a four-shard
// federation (fed) — with every end-to-end metric printed by name.
//
//   e2e_pipeline --workload select_hot --workdir DIR [--seed 1]
//                [--seconds 24] [--trace 1 --trace-out t.json] [--tiny]
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (every end-to-end candidate, or per-layer with --trace 1) and
// info. run.py builds this binary and turns that line into the
// benchmark's result: the metrics BENCHMARK.json gates.
// Exits non-zero, without a result, when set-up fails or any correctness
// check (the five-path oracle, sampling budgets, fed invariants) fails.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet.h"
#include "layers.h"
#include "mstore/mapped_model_store.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "selection/db_selection.h"
#include "spans.h"
#include "text/analyzer.h"
#include "util/random.h"

namespace qbs::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && !args->workdir.empty();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_pipeline: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

/// Everything the run reports. Printed only when every correctness
/// check passed; a failed check exits before.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string name, double value) {
    info.emplace_back(std::move(name), value);
  }
  void Print() const {
    std::printf("{\"correct\": true, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (!std::isfinite(metrics[i].value)) {
        Fail("metric " + metrics[i].name + " is not a finite number");
      }
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}, \"info\": {");
    for (size_t i = 0; i < info.size(); ++i) {
      std::printf("%s\"%s\": ", i == 0 ? "" : ", ", info[i].first.c_str());
      if (std::isfinite(info[i].second)) {
        std::printf("%.17g", info[i].second);
      } else {
        std::printf("null");
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// Phase accounting: wall, CPU and RSS per top-level phase. Per-layer
/// metrics in the traced run, information otherwise.
class Phases {
 public:
  Phases(Report* report, bool as_metrics)
      : report_(report), as_metrics_(as_metrics) {}
  void Begin() { start_ = Usage::Now(); }
  void End(const std::string& name) {
    const Usage end = Usage::Now();
    const std::string p = "phase." + name + ".";
    Put(p + "wall_s", end.wall_s - start_.wall_s, "s");
    Put(p + "cpu_user_s", end.user_s - start_.user_s, "s");
    Put(p + "cpu_sys_s", end.sys_s - start_.sys_s, "s");
    Put(p + "rss_mb", end.rss_mb, "MiB");
    start_ = end;
  }

 private:
  void Put(const std::string& name, double value, const char* unit) {
    if (as_metrics_) {
      report_->Add(name, value, unit);
    } else {
      report_->Info(name, value);
    }
  }
  Report* report_;
  bool as_metrics_;
  Usage start_;
};

/// Bitwise ranking equality: same names in the same order, same score bits.
bool SameRanking(const std::vector<DatabaseScore>& a,
                 const std::vector<DatabaseScore>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].db_name != b[i].db_name ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// One ranker of each kind over `collection`, in Rankers() order.
std::vector<std::unique_ptr<DatabaseRanker>> RankersOver(
    const DatabaseCollection* collection) {
  std::vector<std::unique_ptr<DatabaseRanker>> rankers;
  for (const std::string& name : Rankers()) {
    rankers.push_back(MakeRanker(name, collection));
  }
  return rankers;
}

/// Correctness oracle: 64 probe queries x 4 rankers through five paths
/// (heap collection, mapped store, local, remote, fed) must rank
/// byte-identically. Also returns, for hot streams, the expected ranking
/// of every (query, ranker) pair, which the tiers check each result
/// against.
std::vector<std::vector<DatabaseScore>> RunOracle(Pipeline& p,
                                                  const QueryStream& queries,
                                                  size_t probes) {
  Span span("oracle");
  const DatabaseCollection heap = p.learner->Collection();
  auto store = MappedModelStore::Open(p.store_path);
  Require(store.status(), "oracle: open store");
  const DatabaseCollection mapped = CollectionFromStore(*store);
  const auto heap_rankers = RankersOver(&heap);
  const auto mapped_rankers = RankersOver(&mapped);
  auto remote = ConnectSelector(p.broker_server->port());
  Require(remote.status(), "oracle: connect remote");
  auto fed = ConnectSelector(p.fed_server->port());
  Require(fed.status(), "oracle: connect fed");
  const Analyzer analyzer = Analyzer::InqueryLike();

  auto check = [&](const std::string& query) {
    const std::vector<std::string> terms = analyzer.Analyze(query);
    for (size_t r = 0; r < Rankers().size(); ++r) {
      const std::string& ranker = Rankers()[r];
      const auto expected = heap_rankers[r]->Rank(terms);
      if (expected.size() != p.num_databases) {
        Fail("oracle: heap ranking covers " + std::to_string(expected.size()) +
             " databases");
      }
      auto local = p.broker->Select(query, ranker);
      Require(local.status(), "oracle: local select");
      auto via_remote = (*remote)->Select(query, ranker);
      Require(via_remote.status(), "oracle: remote select");
      auto via_fed = (*fed)->Select(query, ranker);
      Require(via_fed.status(), "oracle: fed select");
      const std::pair<const char*, bool> paths[] = {
          {"mapped", SameRanking(expected, mapped_rankers[r]->Rank(terms))},
          {"local", SameRanking(expected, local->scores)},
          {"remote", SameRanking(expected, via_remote->scores)},
          {"fed", SameRanking(expected, via_fed->scores) && !via_fed->partial},
      };
      for (const auto& [path, same] : paths) {
        if (!same) {
          Fail(std::string("oracle: ") + path + " ranking differs from the "
               "heap collection for '" + query + "' / " + ranker);
        }
      }
    }
  };
  for (size_t i = 0; i < probes; ++i) check(queries.Probe(i));
  std::vector<std::vector<DatabaseScore>> expected;
  if (queries.hot()) {
    for (size_t q = 0; q < queries.num_hot(); ++q) {
      const std::vector<std::string> terms = analyzer.Analyze(queries.At(q));
      for (const auto& ranker : heap_rankers) {
        expected.push_back(ranker->Rank(terms));
      }
    }
  }
  return expected;
}

enum class Tier { kLocal, kRemote, kFed };
const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kLocal:
      return "local";
    case Tier::kRemote:
      return "remote";
    default:
      return "fed";
  }
}

/// A uniform sample of at most `capacity` values (Algorithm R): latency
/// memory does not grow with throughput, so peak RSS does not either.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : capacity_(capacity), rng_(seed) {
    values_.reserve(capacity);
  }
  void Add(double value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
      return;
    }
    const uint64_t j = rng_.UniformBelow(seen_);
    if (j < capacity_) values_[j] = value;
  }
  uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t capacity_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// One tier over the whole run. Every slice adds to it, so the reported
/// percentiles are those of all the run's measured latencies.
struct TierTally {
  TierTally() {
    for (size_t t = 0; t < kClients; ++t) {
      latency_us.emplace_back(1 << 16, t + 1);
    }
  }
  /// Per client thread: a uniform sample of its measured latencies; its
  /// seen() is the number of Selects completed inside measured windows.
  std::vector<Reservoir> latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  /// Total length of the measured windows, and process CPU inside them.
  double window_s = 0;
  double cpu_s = 0;
};

/// Warm-up at the start of every slice: new connections, and caches the
/// other tiers' slices displaced.
constexpr double kWarmUpS = 0.1;

/// Closed loop: kClients threads, each owning its connection, send the
/// next Select as soon as the previous one returns. After a short
/// warm-up, latencies and CPU are added to `tally`.
void RunTier(Tier tier, Pipeline& p, QueryStream& queries,
             const std::vector<std::vector<DatabaseScore>>& expected,
             double seconds, TierTally* tally) {
  const char* span_name = tier == Tier::kLocal    ? "tier.local.select"
                          : tier == Tier::kRemote ? "tier.remote.select"
                                                  : "tier.fed.select";
  const double start = NowSec();
  const double window_start = start + std::min(kWarmUpS, seconds / 8);
  const double stop = start + seconds;
  struct Counts {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
  };
  std::vector<Counts> per_thread(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Counts& out = per_thread[t];
      std::unique_ptr<RemoteSelector> selector;
      if (tier != Tier::kLocal) {
        auto connected = ConnectSelector(tier == Tier::kRemote
                                             ? p.broker_server->port()
                                             : p.fed_server->port());
        if (!connected.ok()) {
          ++out.attempted;
          ++out.failed;
          return;
        }
        selector = std::move(*connected);
      }
      QueryStream::Cursor cursor = queries.NewCursor(t);
      uint64_t request_id = (t + 1) << 40;
      while (true) {
        const double t0 = NowSec();
        if (t0 >= stop) break;
        const QueryStream::Request request = queries.Next(cursor);
        const std::string& ranker = Rankers()[request.ranker];
        Result<SelectionResult> result = [&] {
          Span span(span_name, ++request_id);
          return tier == Tier::kLocal ? p.broker->Select(request.query, ranker)
                                      : selector->Select(request.query, ranker);
        }();
        const double t1 = NowSec();
        ++out.attempted;
        if (!result.ok() || result->partial) {
          ++out.failed;
          continue;
        }
        const bool right =
            result->scores.size() == p.num_databases &&
            (expected.empty() ||
             SameRanking(result->scores,
                         expected[request.hot_index * Rankers().size() +
                                  request.ranker]));
        if (!right) ++out.wrong;
        if (t0 >= window_start && t1 <= stop) {
          tally->latency_us[t].Add((t1 - t0) * 1e6);
        }
      }
    });
  }
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(window_start))));
  const Usage before = Usage::Now();
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(stop))));
  const Usage after = Usage::Now();
  for (std::thread& c : clients) c.join();

  tally->window_s += after.wall_s - before.wall_s;
  tally->cpu_s += after.cpu_s() - before.cpu_s();
  for (const Counts& c : per_thread) {
    tally->attempted += c.attempted;
    tally->failed += c.failed;
    tally->wrong += c.wrong;
  }
}

void ReportTier(Tier tier, const TierTally& t, Report* report) {
  const std::string name = TierName(tier);
  std::vector<double> latency_us;
  uint64_t completed = 0;
  for (const Reservoir& r : t.latency_us) {
    latency_us.insert(latency_us.end(), r.values().begin(), r.values().end());
    completed += r.seen();
  }
  if (completed == 0) Fail(name + " tier: no Select completed");
  const double samples = static_cast<double>(completed);
  report->Add(name + "_select_p50_us", Percentile(latency_us, 0.50), "us");
  report->Add(name + "_select_p99_us", Percentile(latency_us, 0.99), "us");
  report->Add(name + "_cpu_us_per_select", t.cpu_s * 1e6 / samples, "us");
  report->Info(name + "_selects_per_s", samples / t.window_s);
  report->Info(name + "_samples", samples);
  report->attempted += t.attempted;
  report->failed += t.failed;
}

/// Sampling totals over the stretches a run measures.
struct SamplingTally {
  size_t documents = 0;
  size_t runs = 0;
  double wall_s = 0;
  double cpu_s = 0;

  void Add(size_t docs, size_t databases, const Usage& start,
           const Usage& end) {
    documents += docs;
    runs += databases;
    wall_s += end.wall_s - start.wall_s;
    cpu_s += end.cpu_s() - start.cpu_s();
  }
  double docs_per_s() const { return documents / wall_s; }
  double cpu_us_per_doc() const { return cpu_s * 1e6 / documents; }
};

/// One of discover's sampling rounds: a fresh SamplingService over the
/// fleet RefreshAll-samples it and packs the store, then a serving
/// service cold-starts from that store.
void DiscoverRound(const WorkloadShape& shape, const Fleet& fleet,
                   uint64_t base_seed, const std::string& store_path,
                   SamplingTally* tally) {
  Span span("round", base_seed);
  const Usage start = Usage::Now();
  SamplingService service(LearnerOptions(shape, base_seed, store_path));
  Require(AddTargets(fleet, &service), "round: add databases");
  {
    Span refresh("round.refresh_all", base_seed);
    Require(service.RefreshAll(), "round: RefreshAll");
  }
  Require(CheckBudgets(service, fleet), "round: budgets");
  ServiceOptions serving_options;
  serving_options.store_path = store_path;
  SamplingService serving(serving_options);
  {
    Span load("round.load_store", base_seed);
    Require(serving.LoadStore(), "round: LoadStore");
  }
  const Usage end = Usage::Now();
  size_t documents = 0;
  for (const DatabaseState& s : service.state()) {
    documents += s.documents_examined;
  }
  tally->Add(documents, service.size(), start, end);
}

/// select_during_refresh's writer: Refresh(name) round-robin, each call
/// re-sampling one database and publishing a new epoch.
class Refresher {
 public:
  Refresher(Pipeline* p, const Fleet* fleet)
      : p_(p), fleet_(fleet), thread_([this] { Loop(); }) {}
  ~Refresher() { Stop(); }
  Refresher(const Refresher&) = delete;
  Refresher& operator=(const Refresher&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }
  /// Documents sampled so far.
  size_t documents() const { return documents_.load(); }
  size_t runs() const { return runs_.load(); }
  /// The first failure; read after Stop().
  const Status& status() const { return status_; }

 private:
  void Loop() {
    const auto& states = p_->learner->state();
    for (size_t i = 0; !stop_.load() && status_.ok(); ++i) {
      const size_t db = i % states.size();
      const std::string name = states[db].name;
      Span span("refresher.refresh", i + 1);
      status_ = p_->learner->Refresh(name);
      if (status_.ok() &&
          states[db].documents_examined != fleet_->expected_docs[db]) {
        status_ = Status::Internal("refresh of '" + name + "' missed budget");
      }
      documents_ += states[db].documents_examined;
      ++runs_;
    }
  }

  Pipeline* p_;
  const Fleet* fleet_;
  Status status_;
  std::atomic<size_t> documents_{0};
  std::atomic<size_t> runs_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after everything it uses
};

int Main(const Args& args) {
  SetMinLogLevel(LogLevel::kWarning);
  WorkloadShape shape;
  if (!MakeWorkload(args.workload, args.seed, args.tiny, &shape)) {
    Fail("unknown workload '" + args.workload + "'");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Fail("cannot create " + args.workdir + ": " + ec.message());
  const std::string store_path = args.workdir + "/" + shape.name + ".mstore";
  const std::string round_store =
      args.workdir + "/" + shape.name + "-round.mstore";
  EnableSpans(args.trace);

  // `report` holds the end-to-end metrics; the traced run prints
  // `layer_report` instead, with those as information.
  Report report;
  Report layer_report;
  Phases phases(args.trace ? &layer_report : &report, args.trace);
  phases.Begin();

  // Fixture: corpora and database servers. Not part of set-up time.
  Fleet fleet;
  {
    Span span("fixture");
    Require(BuildFleet(shape, &fleet), "fixture");
  }
  QueryStream queries(args.seed, shape.hot_queries);
  phases.End("fixture");
  report.Info("databases", static_cast<double>(fleet.engines.size()));

  // Set-up, several times: learn, pack, cold-start, serve. The last
  // pipeline stays up for the rest of the run.
  std::vector<double> setup_s;
  SamplingTally setup_sampling;
  auto pipeline = std::make_unique<Pipeline>();
  for (size_t k = 0; k < shape.setups; ++k) {
    pipeline.reset();
    pipeline = std::make_unique<Pipeline>();
    const double t0 = NowSec();
    Require(SetUpPipeline(shape, fleet, args.seed + k, store_path,
                          queries.Probe(0), pipeline.get()),
            "set-up");
    setup_s.push_back(NowSec() - t0);
    setup_sampling.Add(pipeline->documents, fleet.engines.size(),
                       pipeline->refresh_start, pipeline->refresh_end);
  }
  report.attempted += setup_sampling.runs;
  Pipeline& p = *pipeline;
  phases.End("setup");

  const auto expected = RunOracle(p, queries, args.tiny ? 8 : 64);
  phases.End("oracle");

  // Measurement, in rounds: each round runs discover's sampling rounds,
  // a few cold starts, and a slice of every tier, so each metric is
  // taken across the whole run rather than one stretch of it.
  const size_t rounds = args.tiny ? 2 : kRounds;
  const double round_s = args.seconds / static_cast<double>(rounds);
  const double slice_s = round_s * (1 - shape.rounds_share) / 3;
  const size_t cold_per_round = (shape.cold_starts + rounds - 1) / rounds;
  Counter* fanout =
      MetricRegistry::Default().GetCounter("qbs_fed_fanout_rpcs_total");
  Counter* restarts =
      MetricRegistry::Default().GetCounter("qbs_fed_epoch_restarts_total");
  uint64_t fed_rpcs = 0, fed_restarts = 0;
  // Cold start: LoadStore (verified open + publish) on a serving service
  // that owns no databases.
  ServiceOptions cold_options;
  cold_options.store_path = store_path;
  SamplingService cold(cold_options);
  std::vector<double> cold_ms;
  SamplingTally sampling;
  std::unique_ptr<Refresher> refresher;
  if (shape.refresh_while_serving) {
    refresher = std::make_unique<Refresher>(&p, &fleet);
  }
  TierTally tiers[3];
  uint64_t next_round_seed = args.seed + 100;
  const Usage measure_start = Usage::Now();
  for (size_t r = 0; r < rounds; ++r) {
    if (shape.rounds_share > 0) {
      const double stop = NowSec() + round_s * shape.rounds_share;
      do {
        DiscoverRound(shape, fleet, next_round_seed++, round_store, &sampling);
      } while (NowSec() < stop);
    }
    for (size_t i = 0; i < cold_per_round; ++i) {
      Span span("cold_start.load_store");
      const double t0 = NowSec();
      Require(cold.LoadStore(), "cold start");
      cold_ms.push_back((NowSec() - t0) * 1e3);
    }
    for (Tier tier : {Tier::kLocal, Tier::kRemote, Tier::kFed}) {
      const uint64_t rpcs_before = fanout->value();
      const uint64_t restarts_before = restarts->value();
      RunTier(tier, p, queries, expected, slice_s,
              &tiers[static_cast<int>(tier)]);
      if (tier == Tier::kFed) {
        fed_rpcs += fanout->value() - rpcs_before;
        fed_restarts += restarts->value() - restarts_before;
      }
    }
  }
  if (refresher) {
    refresher->Stop();
    Require(refresher->status(), "refresher");
    // Wall time only: the refresher shares the process's CPU time with
    // the tiers, so its CPU per document comes from the set-ups.
    sampling.documents = refresher->documents();
    sampling.runs = refresher->runs();
    sampling.wall_s = NowSec() - measure_start.wall_s;
  }
  report.attempted += sampling.runs;
  phases.End("measure");

  // Invariants: each fed select is exactly 2 RPCs per shard, and the
  // static shards never restart an epoch.
  const TierTally& fed = tiers[static_cast<int>(Tier::kFed)];
  if (fed_rpcs != 2 * kShards * fed.attempted) {
    Fail("fed: " + std::to_string(fed_rpcs) + " fan-out RPCs for " +
         std::to_string(fed.attempted) + " selects, want " +
         std::to_string(2 * kShards) + " each");
  }
  if (fed_restarts != 0) Fail("fed: epoch restarts on static shards");
  uint64_t wrong = 0;
  for (const TierTally& t : tiers) wrong += t.wrong;
  if (wrong != 0) {
    Fail(std::to_string(wrong) + " selects returned a wrong ranking");
  }
  report.Info("shed", static_cast<double>(p.broker_server->shed() +
                                          p.fed_server->shed()));
  report.Info("fed_rpcs_per_select", static_cast<double>(fed_rpcs) /
                                         static_cast<double>(fed.attempted));

  // End-to-end metrics. Without a measured sampling loop (select_hot,
  // select_wide) the set-ups' RefreshAll calls are the sampling numbers,
  // and select_during_refresh's CPU per document comes from them.
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("sample_docs_per_s",
             (sampling.wall_s > 0 ? sampling : setup_sampling).docs_per_s(),
             "docs/s");
  report.Add("sample_cpu_us_per_doc",
             (sampling.cpu_s > 0 ? sampling : setup_sampling).cpu_us_per_doc(),
             "us");
  for (Tier tier : {Tier::kLocal, Tier::kRemote, Tier::kFed}) {
    ReportTier(tier, tiers[static_cast<int>(tier)], &report);
  }
  report.Info("sample_documents", static_cast<double>(sampling.documents));
  report.Add("cold_start_ms", Median(cold_ms), "ms");
  report.Info("cold_starts", static_cast<double>(cold_ms.size()));
  report.Info("setups", static_cast<double>(setup_s.size()));

  report.Add("peak_rss_mb", PeakRssMb(), "MiB");

  if (!args.trace) {
    report.Print();
  } else {
    LayerMetrics layers;
    LayerInputs in;
    in.shape = &shape;
    in.fleet = &fleet;
    in.pipeline = &p;
    in.queries = &queries;
    in.workdir = args.workdir;
    in.budget_scale = args.tiny ? 0.1 : 1;
    for (const auto& m : report.metrics) {
      if (m.name == "remote_select_p50_us") in.remote_p50_us = m.value;
    }
    Require(ReplayLayers(in, &layers), "layer replay");
    phases.End("replay");
    for (const auto& [name, v] : layers) {
      layer_report.Add(name, v.value, v.unit);
    }
    // The traced run's end-to-end numbers carry the spans' overhead, so
    // they are information only.
    for (const auto& m : report.metrics) layer_report.Info(m.name, m.value);
    layer_report.info.insert(layer_report.info.end(), report.info.begin(),
                             report.info.end());
    layer_report.attempted = report.attempted;
    layer_report.failed = report.failed;
    if (!args.trace_out.empty() &&
        !WriteChromeTrace(args.trace_out, CollectSpans())) {
      Fail("cannot write " + args.trace_out);
    }
    layer_report.Print();
  }
  // Servers and pools stop in the destructors; exit only after they do.
  pipeline.reset();
  return 0;
}

}  // namespace
}  // namespace qbs::e2e

int main(int argc, char** argv) {
  qbs::e2e::Args args;
  if (!qbs::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_pipeline --workload NAME --workdir DIR "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--tiny]\n");
    return 2;
  }
  return qbs::e2e::Main(args);
}
