#include "layers.h"

#include <algorithm>
#include <array>
#include <vector>

#include "mstore/mapped_model_store.h"
#include "mstore/model_store_writer.h"
#include "net/remote_db.h"
#include "net/wire.h"
#include "net/wire_client.h"
#include "sampling/sampler.h"
#include "selection/db_selection.h"
#include "spans.h"
#include "text/analyzer.h"

namespace qbs::e2e {

namespace {

// Results of timed calls are folded in here so the calls are not
// optimized away.
volatile size_t g_sink = 0;
// LayerInputs::budget_scale of the replay in progress.
double g_budget_scale = 1;

/// Median wall time of one call, in microseconds: fn(i) runs at least
/// `min_calls` times, then until `budget_s` is spent or `max_calls`.
template <typename Fn>
double MedianUs(const char* span, double budget_s, Fn&& fn,
                size_t min_calls = 20, size_t max_calls = 5'000) {
  std::vector<double> us;
  const double stop = NowSec() + budget_s * g_budget_scale;
  while (us.size() < min_calls || (us.size() < max_calls && NowSec() < stop)) {
    const uint64_t t0 = NowNs();
    {
      Span s(span);
      fn(us.size());
    }
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(us);
}

/// For calls too short to time one by one: median over batches of the
/// per-call time, in nanoseconds.
template <typename Fn>
double BatchedNs(const char* span, size_t batch, double budget_s, Fn&& fn) {
  std::vector<double> ns;
  const double stop = NowSec() + budget_s * g_budget_scale;
  size_t i = 0;
  while (ns.size() < 5 || (ns.size() < 1'000 && NowSec() < stop)) {
    const uint64_t t0 = NowNs();
    {
      Span s(span);
      for (size_t k = 0; k < batch; ++k) fn(i++);
    }
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(batch));
  }
  return Median(ns);
}

/// QueryBasedSampler::Run per database on this thread, over loopback,
/// with TimedTextDatabase on both sides of the wire.
Status ReplaySampling(const LayerInputs& in, LayerMetrics* out) {
  const Fleet& fleet = *in.fleet;
  const size_t n = std::min<size_t>(8, fleet.engines.size());
  size_t docs = 0, queries = 0, hits = 0, fresh = 0;
  uint64_t rpcs = 0;
  for (size_t j = 0; j < n; ++j) {
    SearchEngine* engine = fleet.engines[j * fleet.engines.size() / n].get();
    TimedTextDatabase server_side(engine, /*server_side=*/true);
    DbServer server(&server_side, DbServerOptions{});
    QBS_RETURN_IF_ERROR(server.Start());
    RemoteDatabaseOptions options;
    options.port = server.port();
    RemoteTextDatabase remote(options);
    QBS_RETURN_IF_ERROR(remote.Connect());
    TimedTextDatabase client(&remote, /*server_side=*/false);

    SamplerOptions sampler_options =
        LearnerOptions(*in.shape, 0, std::string()).sampler;
    for (const std::string& term : BootstrapTerms()) {
      auto probe = client.RunQuery(term, 1);
      QBS_RETURN_IF_ERROR(probe.status());
      if (!probe->empty()) {
        sampler_options.initial_term = term;
        break;
      }
    }
    sampler_options.seed = 1'000 + j;
    QueryBasedSampler sampler(&client, sampler_options);
    Result<SamplingResult> result = [&] {
      Span span("sampler.run");
      return sampler.Run();
    }();
    QBS_RETURN_IF_ERROR(result.status());
    docs += result->documents_examined;
    queries += result->queries_run;
    for (const QueryRecord& q : result->queries) {
      hits += q.hits_returned;
      fresh += q.new_docs;
    }
    rpcs += remote.rpcs();
    server.Stop();
  }
  auto spans = Summarize(CollectSpans());
  const SpanTotals& cq = spans["db.client.query"];
  const SpanTotals& cf = spans["db.client.fetch_batch"];
  const SpanTotals& sq = spans["db.server.query"];
  const SpanTotals& sf = spans["db.server.fetch_batch"];
  (*out)["db.client_query_us"] = {cq.mean_us(), "us"};
  (*out)["db.server_query_us"] = {sq.mean_us(), "us"};
  (*out)["db.client_fetch_batch_us"] = {cf.mean_us(), "us"};
  (*out)["db.server_fetch_batch_us"] = {sf.mean_us(), "us"};
  (*out)["db.transport_us"] = {
      (cq.total_us + cf.total_us - sq.total_us - sf.total_us) /
          static_cast<double>(cq.count + cf.count),
      "us"};
  (*out)["net.rpcs_per_doc"] = {static_cast<double>(rpcs) / docs, "count"};
  (*out)["sampler.self_us_per_doc"] = {spans["sampler.run"].self_us / docs,
                                       "us"};
  (*out)["sampler.queries_per_doc"] = {static_cast<double>(queries) / docs,
                                       "count"};
  (*out)["sampler.dup_hit_frac"] = {
      static_cast<double>(hits - fresh) / static_cast<double>(hits), "ratio"};
  return Status::OK();
}

/// Pack and open the workload's own models, five times.
Status ReplayStore(const LayerInputs& in, LayerMetrics* out) {
  const DatabaseCollection heap = in.pipeline->learner->Collection();
  const std::string path = in.workdir + "/" + in.shape->name + "-replay.mstore";
  std::vector<double> serialize_ms, write_ms, open_ms;
  size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    ModelStoreWriter writer;
    for (size_t i = 0; i < heap.size(); ++i) {
      QBS_RETURN_IF_ERROR(writer.Add(heap.name(i), heap.model(i)));
    }
    double t0 = NowSec();
    {
      Span span("mstore.serialize");
      auto image = writer.Serialize();
      QBS_RETURN_IF_ERROR(image.status());
      bytes = image->size();
    }
    serialize_ms.push_back((NowSec() - t0) * 1e3);
    t0 = NowSec();
    {
      Span span("mstore.write");
      QBS_RETURN_IF_ERROR(writer.WriteToFile(path));
    }
    write_ms.push_back((NowSec() - t0) * 1e3);
    t0 = NowSec();
    {
      Span span("mstore.open_verify");
      QBS_RETURN_IF_ERROR(MappedModelStore::Open(path).status());
    }
    open_ms.push_back((NowSec() - t0) * 1e3);
  }
  (*out)["mstore.serialize_ms"] = {Median(serialize_ms), "ms"};
  (*out)["mstore.write_ms"] = {Median(write_ms), "ms"};
  (*out)["mstore.open_verify_ms"] = {Median(open_ms), "ms"};
  (*out)["mstore.image_mb"] = {static_cast<double>(bytes) / (1 << 20), "MiB"};
  return Status::OK();
}

/// Registry publish and acquire, and single-client broker Select.
Status ReplayBroker(const LayerInputs& in, LayerMetrics* out) {
  Pipeline& p = *in.pipeline;
  const auto mapped = p.serving->registry().Snapshot();
  ModelRegistry registry;
  (*out)["broker.publish_ms"] = {
      MedianUs("broker.publish", 0.5,
               [&](size_t) { g_sink = registry.Publish(mapped->collection()); },
               5, 50) /
          1e3,
      "ms"};
  (*out)["broker.snapshot_ns"] = {
      BatchedNs("broker.snapshot", 1'000, 0.1,
                [&](size_t) { g_sink = p.tier_registry->Snapshot()->epoch(); }),
      "ns"};
  Status failed;
  (*out)["broker.select_us"] = {
      MedianUs("broker.select", 0.3,
               [&](size_t i) {
                 const auto r = in.queries->Replay(i);
                 auto result = p.broker->Select(r.query, Rankers()[r.ranker]);
                 if (!result.ok()) failed = result.status();
               }),
      "us"};
  QBS_RETURN_IF_ERROR(failed);
  const BrokerStatusInfo status = p.broker->BrokerStatus();
  (*out)["broker.cache_hit_frac"] = {
      static_cast<double>(status.cache_hits) /
          static_cast<double>(status.cache_hits + status.cache_misses),
      "ratio"};
  return Status::OK();
}

/// Select's stages called one by one on a sample of the stream.
Status ReplaySelection(const LayerInputs& in, LayerMetrics* out) {
  Pipeline& p = *in.pipeline;
  const auto snapshot = p.serving->registry().Snapshot();
  const DatabaseCollection& mapped = snapshot->collection();
  const DatabaseCollection heap = p.learner->Collection();
  const Analyzer analyzer = Analyzer::InqueryLike();
  constexpr size_t kQueries = 5'000;
  std::vector<std::string> queries;
  std::vector<std::vector<std::string>> terms;
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(in.queries->Replay(i).query);
    terms.push_back(analyzer.Analyze(queries.back()));
  }
  auto ranker = [&](size_t i) {
    return snapshot->ranker(Rankers()[i % Rankers().size()]);
  };

  (*out)["select.analyze_ns"] = {
      BatchedNs("select.analyze", 64, 0.2,
                [&](size_t i) {
                  g_sink = analyzer.Analyze(queries[i % kQueries]).size();
                }),
      "ns"};
  (*out)["select.collection_stats_us"] = {
      MedianUs("select.collection_stats", 0.4,
               [&](size_t i) {
                 g_sink = ComputeCollectionStats(mapped, terms[i % kQueries])
                              .num_databases;
               }),
      "us"};
  (*out)["select.rank_us"] = {
      MedianUs("select.rank", 0.4,
               [&](size_t i) {
                 g_sink = ranker(i)->Rank(terms[i % kQueries]).size();
               }),
      "us"};
  constexpr size_t kWithStats = 256;
  std::vector<CollectionStats> stats;
  for (size_t i = 0; i < kWithStats; ++i) {
    stats.push_back(ComputeCollectionStats(mapped, terms[i]));
  }
  (*out)["select.rank_with_us"] = {
      MedianUs("select.rank_with", 0.4,
               [&](size_t i) {
                 g_sink = ranker(i)
                              ->RankWith(terms[i % kWithStats],
                                         stats[i % kWithStats])
                              .size();
               }),
      "us"};

  // FindStats on every (query term, model) pair, mapped and heap.
  auto find_stats_ns = [&](const char* span, const DatabaseCollection& c) {
    uint64_t lookups = 0, ns = 0;
    const double stop = NowSec() + 0.3 * g_budget_scale;
    for (size_t i = 0; lookups < 1'000 || NowSec() < stop; ++i) {
      const std::vector<std::string>& t = terms[i % kQueries];
      const uint64_t t0 = NowNs();
      {
        Span s(span);
        TermStats found;
        for (size_t m = 0; m < c.size(); ++m) {
          for (const std::string& term : t) {
            g_sink = c.model(m).FindStats(term, &found);
          }
        }
      }
      ns += NowNs() - t0;
      lookups += t.size() * c.size();
    }
    return static_cast<double>(ns) / static_cast<double>(lookups);
  };
  (*out)["lm.find_stats_mapped_ns"] = {
      find_stats_ns("lm.find_stats_mapped", mapped), "ns"};
  (*out)["lm.find_stats_heap_ns"] = {find_stats_ns("lm.find_stats_heap", heap),
                                     "ns"};
  return Status::OK();
}

/// Wire codec on the workload's real Select shapes, and a ping.
Status ReplayWire(const LayerInputs& in, LayerMetrics* out) {
  Pipeline& p = *in.pipeline;
  constexpr size_t kShapes = 64;
  std::vector<WireRequest> requests(kShapes);
  std::vector<WireResponse> responses(kShapes);
  std::vector<std::vector<uint8_t>> request_bytes, response_bytes;
  for (size_t i = 0; i < kShapes; ++i) {
    const auto r = in.queries->Replay(i);
    WireRequest& request = requests[i];
    request.method = WireMethod::kSelect;
    request.protocol_version = MinVersionForMethod(WireMethod::kSelect);
    request.request_id = i + 1;
    request.query = r.query;
    request.ranker = Rankers()[r.ranker];
    auto selected = p.broker->Select(r.query, request.ranker);
    QBS_RETURN_IF_ERROR(selected.status());
    WireResponse& response = responses[i];
    response.method = WireMethod::kSelect;
    response.protocol_version = request.protocol_version;
    response.request_id = request.request_id;
    response.epoch = selected->epoch;
    response.scores = selected->scores;
    request_bytes.push_back(EncodeRequest(request));
    response_bytes.push_back(EncodeResponse(response));
  }
  (*out)["wire.encode_request_ns"] = {
      BatchedNs("wire.encode_request", 64, 0.15,
                [&](size_t i) {
                  g_sink = EncodeRequest(requests[i % kShapes]).size();
                }),
      "ns"};
  (*out)["wire.decode_request_ns"] = {
      BatchedNs("wire.decode_request", 64, 0.15,
                [&](size_t i) {
                  g_sink = DecodeRequest(request_bytes[i % kShapes]).ok();
                }),
      "ns"};
  (*out)["wire.encode_response_ns"] = {
      BatchedNs("wire.encode_response", 16, 0.15,
                [&](size_t i) {
                  g_sink = EncodeResponse(responses[i % kShapes]).size();
                }),
      "ns"};
  (*out)["wire.decode_response_ns"] = {
      BatchedNs("wire.decode_response", 16, 0.15,
                [&](size_t i) {
                  g_sink = DecodeResponse(response_bytes[i % kShapes]).ok();
                }),
      "ns"};

  WireClientOptions options;
  options.port = p.broker_server->port();
  WireClient client(options);
  QBS_RETURN_IF_ERROR(client.Connect());
  Status failed;
  (*out)["net.ping_rtt_us"] = {
      MedianUs("net.ping", 0.3,
               [&](size_t) {
                 WireRequest ping;
                 ping.method = WireMethod::kPing;
                 ping.protocol_version = MinVersionForMethod(WireMethod::kPing);
                 auto response = client.Call(std::move(ping));
                 if (!response.ok()) failed = response.status();
               }),
      "us"};
  QBS_RETURN_IF_ERROR(failed);
  const double broker_us = (*out)["broker.select_us"].value;
  (*out)["remote.transport_share"] = {
      (in.remote_p50_us - broker_us) / in.remote_p50_us, "ratio"};
  return Status::OK();
}

/// The federation's steps one by one: phase-1 stats on one shard, the
/// merge, phase-2 SelectWith, one shard's Select RPC, and the whole
/// scatter-gather without the front server.
Status ReplayFed(const LayerInputs& in, LayerMetrics* out) {
  Pipeline& p = *in.pipeline;
  const SelectionBroker& shard0 = *p.shards[0]->broker;
  Status failed;
  auto keep = [&](const Status& s) {
    if (!s.ok()) failed = s;
  };
  (*out)["fed.collect_stats_us"] = {
      MedianUs("fed.collect_stats", 0.3,
               [&](size_t i) {
                 const auto r = in.queries->Replay(i);
                 keep(shard0.CollectStats(r.query).status());
               }),
      "us"};

  constexpr size_t kShapes = 64;
  struct Gathered {
    std::string query;
    std::string ranker;
    uint64_t epoch0 = 0;
    std::array<CollectionStats, kShards> per_shard;
    CollectionStats merged;
  };
  std::vector<Gathered> gathered(kShapes);
  for (size_t i = 0; i < kShapes; ++i) {
    const auto r = in.queries->Replay(i);
    Gathered& g = gathered[i];
    g.query = r.query;
    g.ranker = Rankers()[r.ranker];
    for (size_t s = 0; s < kShards; ++s) {
      auto stats = p.shards[s]->broker->CollectStats(g.query);
      QBS_RETURN_IF_ERROR(stats.status());
      if (s == 0) g.epoch0 = stats->epoch;
      g.per_shard[s] = std::move(stats->stats);
      MergeCollectionStats(g.merged, g.per_shard[s]);
    }
  }
  (*out)["fed.merge_stats_ns"] = {
      BatchedNs("fed.merge_stats", 16, 0.15,
                [&](size_t i) {
                  CollectionStats merged;
                  for (const auto& s : gathered[i % kShapes].per_shard) {
                    MergeCollectionStats(merged, s);
                  }
                  g_sink = merged.num_databases;
                }),
      "ns"};
  (*out)["fed.select_with_us"] = {
      MedianUs("fed.select_with", 0.3,
               [&](size_t i) {
                 const Gathered& g = gathered[i % kShapes];
                 keep(shard0
                          .SelectWith(g.query, g.ranker, 0, g.epoch0, g.merged)
                          .status());
               }),
      "us"};

  auto shard_client = ConnectSelector(p.shards[0]->server->port());
  QBS_RETURN_IF_ERROR(shard_client.status());
  const double shard_us = MedianUs("fed.shard_select", 0.3, [&](size_t i) {
    const auto r = in.queries->Replay(i);
    keep((*shard_client)->Select(r.query, Rankers()[r.ranker]).status());
  });
  const double selector_us =
      MedianUs("fed.selector_select", 0.4, [&](size_t i) {
        const auto r = in.queries->Replay(i);
        auto result = p.fed->Select(r.query, Rankers()[r.ranker]);
        keep(result.status());
        if (result.ok() && result->partial) {
          failed = Status::Internal("partial fed select");
        }
      });
  QBS_RETURN_IF_ERROR(failed);
  (*out)["fed.shard_select_us"] = {shard_us, "us"};
  (*out)["fed.selector_select_us"] = {selector_us, "us"};
  (*out)["fed.fanout_serial_ratio"] = {
      selector_us / (2.0 * kShards * shard_us), "ratio"};
  return Status::OK();
}

}  // namespace

Status ReplayLayers(const LayerInputs& in, LayerMetrics* out) {
  Span span("replay");
  g_budget_scale = in.budget_scale;
  QBS_RETURN_IF_ERROR(ReplaySampling(in, out));
  QBS_RETURN_IF_ERROR(ReplayStore(in, out));
  QBS_RETURN_IF_ERROR(ReplayBroker(in, out));
  QBS_RETURN_IF_ERROR(ReplaySelection(in, out));
  QBS_RETURN_IF_ERROR(ReplayWire(in, out));
  return ReplayFed(in, out);
}

}  // namespace qbs::e2e
