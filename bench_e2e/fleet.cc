#include "fleet.h"

#include <algorithm>
#include <thread>

#include "fed/shard_map.h"
#include "mstore/model_store_writer.h"
#include "net/remote_db.h"
#include "spans.h"

namespace qbs::e2e {

namespace {

SyntheticCorpusSpec Preset(size_t k) {
  switch (k % 4) {
    case 0:
      return CacmLikeSpec();
    case 1:
      return Wsj88LikeSpec();
    case 2:
      return Trec123LikeSpec();
    default:
      return SupportKbLikeSpec();
  }
}

SyntheticCorpusSpec Corpus(SyntheticCorpusSpec spec, const std::string& name,
                           uint32_t docs, uint64_t seed, size_t i) {
  spec.name = name + "-" + std::to_string(i);
  spec.num_docs = docs;
  spec.seed = seed * 1'000'003 + 7919 * (i + 1);
  return spec;
}

}  // namespace

const std::vector<std::string>& BootstrapTerms() {
  static const std::vector<std::string> terms = [] {
    std::vector<std::string> t;
    for (uint64_t id = 0; id < 10; ++id) t.push_back(SyntheticWordForId(id));
    return t;
  }();
  return terms;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  WorkloadShape* shape) {
  *shape = WorkloadShape();
  shape->name = name;
  if (tiny) {
    shape->setups = 1;
    shape->cold_starts = 2;
  }
  // The discover fleet: 8 cacm-like and 8 wsj88-like databases, the
  // paper's homogeneous and heterogeneous corpora at laptop scale.
  auto discover_fleet = [&] {
    const size_t half = tiny ? 2 : 8;
    for (size_t i = 0; i < half; ++i) {
      shape->corpora.push_back(
          Corpus(CacmLikeSpec(), "cacm", tiny ? 400 : 3'200, seed, i));
      shape->corpora.push_back(
          Corpus(Wsj88LikeSpec(), "wsj88", tiny ? 400 : 10'000, seed, i));
    }
  };
  if (name == "discover") {
    discover_fleet();
    shape->rounds_share = 0.4;
  } else if (name == "select_hot") {
    for (size_t i = 0; i < (tiny ? 4 : 16); ++i) {
      shape->corpora.push_back(
          Corpus(Preset(i), "hot", tiny ? 400 : 1'000, seed, i));
    }
    shape->hot_queries = true;
  } else if (name == "select_wide") {
    for (size_t i = 0; i < (tiny ? 32 : 1'024); ++i) {
      shape->corpora.push_back(
          Corpus(Preset(i), "wide", tiny ? 150 : 300, seed, i));
    }
    shape->budget = tiny ? 50 : 100;
    shape->remote_sampling = false;
    shape->setups = tiny ? 1 : 3;
    shape->cold_starts = tiny ? 2 : 12;
  } else if (name == "select_during_refresh") {
    discover_fleet();
    shape->hot_queries = true;
    shape->refresh_while_serving = true;
  } else {
    return false;
  }
  return true;
}

// --- TimedTextDatabase -----------------------------------------------------

Result<std::vector<SearchHit>> TimedTextDatabase::RunQuery(
    std::string_view query, size_t max_results) {
  Span span(server_side_ ? "db.server.query" : "db.client.query");
  return inner_->RunQuery(query, max_results);
}

Result<std::string> TimedTextDatabase::FetchDocument(std::string_view handle) {
  Span span(server_side_ ? "db.server.fetch" : "db.client.fetch");
  return inner_->FetchDocument(handle);
}

Result<std::vector<FetchedDocument>> TimedTextDatabase::FetchBatch(
    const std::vector<std::string>& handles) {
  Span span(server_side_ ? "db.server.fetch_batch" : "db.client.fetch_batch");
  return inner_->FetchBatch(handles);
}

// --- Fleet -------------------------------------------------------------------

Status BuildFleet(const WorkloadShape& shape, Fleet* fleet) {
  const size_t n = shape.corpora.size();
  fleet->engines.resize(n);
  std::vector<Status> status(n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const size_t threads = std::min<size_t>(4, n);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        auto engine = BuildSyntheticEngine(shape.corpora[i]);
        if (!engine.ok()) {
          status[i] = engine.status();
          continue;
        }
        fleet->engines[i] = std::move(*engine);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& s : status) QBS_RETURN_IF_ERROR(s);
  for (const auto& engine : fleet->engines) {
    fleet->expected_docs.push_back(
        std::min<size_t>(shape.budget, engine->num_docs()));
  }
  if (!shape.remote_sampling) return Status::OK();
  for (const auto& engine : fleet->engines) {
    // Server options stay at their defaults, as `qbs_cli serve-*` runs.
    auto server = std::make_unique<DbServer>(engine.get(), DbServerOptions{});
    QBS_RETURN_IF_ERROR(server->Start());
    fleet->servers.push_back(std::move(server));
  }
  return Status::OK();
}

Status AddTargets(const Fleet& fleet, SamplingService* service) {
  if (fleet.servers.empty()) {
    for (const auto& engine : fleet.engines) {
      QBS_RETURN_IF_ERROR(service->AddDatabase(engine.get()));
    }
    return Status::OK();
  }
  for (const auto& server : fleet.servers) {
    RemoteDatabaseOptions options;
    options.port = server->port();
    auto remote = std::make_unique<RemoteTextDatabase>(options);
    // Learns the remote name, so models are stored under corpus names.
    QBS_RETURN_IF_ERROR(remote->Connect());
    QBS_RETURN_IF_ERROR(service->AddDatabase(std::move(remote)));
  }
  return Status::OK();
}

ServiceOptions LearnerOptions(const WorkloadShape& shape, uint64_t base_seed,
                              const std::string& store_path) {
  ServiceOptions options;
  options.sampler.docs_per_query = 4;
  options.sampler.stopping.max_documents = shape.budget;
  options.sampler.retrieval = RetrievalMode::kFetchBatch;
  options.num_threads = 4;
  options.base_seed = base_seed;
  options.store_path = store_path;
  options.seed_terms = BootstrapTerms();
  return options;
}

Status CheckBudgets(const SamplingService& service, const Fleet& fleet) {
  const auto& states = service.state();
  for (size_t i = 0; i < states.size(); ++i) {
    if (!states[i].last_status.ok()) return states[i].last_status;
    if (states[i].documents_examined != fleet.expected_docs[i]) {
      return Status::Internal(
          "'" + states[i].name + "' sampled " +
          std::to_string(states[i].documents_examined) + " documents, want " +
          std::to_string(fleet.expected_docs[i]));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<RemoteSelector>> ConnectSelector(uint16_t port) {
  WireClientOptions options;
  options.port = port;
  auto selector = std::make_unique<RemoteSelector>(options);
  QBS_RETURN_IF_ERROR(selector->Connect());
  return selector;
}

Status SetUpPipeline(const WorkloadShape& shape, const Fleet& fleet,
                     uint64_t base_seed, const std::string& store_path,
                     const std::string& first_query, Pipeline* p) {
  Span setup_span("setup");
  p->store_path = store_path;
  // select_during_refresh's refresher must not pack on every publish, so
  // its learner has no store path and the store is packed explicitly
  // below — the same ModelStoreWriter calls SaveStore makes.
  const bool pack_explicitly = shape.refresh_while_serving;
  p->learner = std::make_unique<SamplingService>(LearnerOptions(
      shape, base_seed, pack_explicitly ? std::string() : store_path));
  QBS_RETURN_IF_ERROR(AddTargets(fleet, p->learner.get()));
  {
    Span span("learner.refresh_all");
    p->refresh_start = Usage::Now();
    QBS_RETURN_IF_ERROR(p->learner->RefreshAll());
    p->refresh_end = Usage::Now();
  }
  QBS_RETURN_IF_ERROR(CheckBudgets(*p->learner, fleet));
  for (const DatabaseState& s : p->learner->state()) {
    p->documents += s.documents_examined;
  }
  if (pack_explicitly) {
    Span span("mstore.pack");
    DatabaseCollection heap = p->learner->Collection();
    ModelStoreWriter writer;
    for (size_t i = 0; i < heap.size(); ++i) {
      QBS_RETURN_IF_ERROR(writer.Add(heap.name(i), heap.model(i)));
    }
    QBS_RETURN_IF_ERROR(writer.WriteToFile(store_path));
  }

  // Cold start: a serving process that owns no databases publishes
  // straight from the packed store.
  ServiceOptions serving_options;
  serving_options.store_path = store_path;
  p->serving = std::make_unique<SamplingService>(serving_options);
  {
    Span span("serving.load_store");
    QBS_RETURN_IF_ERROR(p->serving->LoadStore());
  }
  p->tier_registry = shape.refresh_while_serving ? &p->learner->registry()
                                                 : &p->serving->registry();
  std::shared_ptr<const SelectionSnapshot> mapped =
      p->serving->registry().Snapshot();
  p->num_databases = mapped->collection().size();

  p->broker = std::make_unique<SelectionBroker>(p->tier_registry);
  p->broker_server =
      std::make_unique<BrokerServer>(p->broker.get(), BrokerServerOptions{});
  QBS_RETURN_IF_ERROR(p->broker_server->Start());

  // Placement over stable shard labels, so a seed always yields the same
  // partition whatever ports the shard servers bind.
  std::vector<std::string> labels;
  for (size_t s = 0; s < kShards; ++s) {
    labels.push_back("shard-" + std::to_string(s));
  }
  ShardMap placement(labels);
  std::vector<DatabaseCollection> parts(kShards);
  const DatabaseCollection& all = mapped->collection();
  for (size_t i = 0; i < all.size(); ++i) {
    parts[placement.OwnerIndexOf(all.name(i))].Add(all.name(i),
                                                   all.model_ptr(i));
  }
  FederatedSelectorOptions fed_options;
  for (size_t s = 0; s < kShards; ++s) {
    auto node = std::make_unique<ShardNode>();
    node->registry.Publish(std::move(parts[s]));
    node->broker = std::make_unique<SelectionBroker>(&node->registry);
    node->server = std::make_unique<BrokerServer>(node->broker.get(),
                                                  BrokerServerOptions{});
    QBS_RETURN_IF_ERROR(node->server->Start());
    fed_options.shards.push_back("127.0.0.1:" +
                                 std::to_string(node->server->port()));
    p->shards.push_back(std::move(node));
  }
  p->fed = std::make_unique<FederatedSelector>(fed_options);
  p->fed_server = std::make_unique<FederationServer>(
      p->fed.get(), FederationServerOptions{});
  QBS_RETURN_IF_ERROR(p->fed_server->Start());

  // Ready when every tier has answered once.
  QBS_RETURN_IF_ERROR(p->broker->Select(first_query, "cori").status());
  for (uint16_t port : {p->broker_server->port(), p->fed_server->port()}) {
    auto selector = ConnectSelector(port);
    QBS_RETURN_IF_ERROR(selector.status());
    auto result = (*selector)->Select(first_query, "cori");
    QBS_RETURN_IF_ERROR(result.status());
    if (result->partial) return Status::Internal("partial fed select");
  }
  return Status::OK();
}

// --- QueryStream -------------------------------------------------------------

namespace {

// Query words are the synthetic generator's most frequent content words,
// so most query terms occur in most models.
constexpr uint64_t kWordIds = 4096;
constexpr uint64_t kPairSpace = kWordIds * kWordIds;  // 2^24

}  // namespace

QueryStream::QueryStream(uint64_t seed, bool hot)
    : seed_(seed), hot_(hot), popularity_(128, 1.0) {
  uint64_t state = seed ^ 0x51ED5EEDULL;
  mul_ = SplitMix64(state) | 1;  // odd: i -> mul*i+add is a bijection mod 2^24
  add_ = SplitMix64(state);
  if (!hot_) return;
  Rng rng(SplitMix64(state));
  ZipfSampler words(kWordIds, 1.0);
  while (hot_queries_.size() < 128) {
    std::string query;
    const uint64_t len = 1 + rng.UniformBelow(3);
    for (uint64_t w = 0; w < len; ++w) {
      if (!query.empty()) query.push_back(' ');
      query += SyntheticWordForId(words.Sample(rng) - 1);
    }
    if (std::find(hot_queries_.begin(), hot_queries_.end(), query) ==
        hot_queries_.end()) {
      hot_queries_.push_back(std::move(query));
    }
  }
}

QueryStream::Cursor QueryStream::NewCursor(uint64_t thread_index) const {
  return Cursor{Rng(seed_ * 31 + thread_index + 1), thread_index};
}

std::string QueryStream::At(uint64_t i) const {
  if (hot_) return hot_queries_[i % hot_queries_.size()];
  const uint64_t p = (mul_ * i + add_) % kPairSpace;
  std::string query = SyntheticWordForId(p / kWordIds) + " " +
                      SyntheticWordForId(p % kWordIds);
  if (i % 3 == 0) {
    query += " " + SyntheticWordForId((p * 2654435761ULL >> 7) % kWordIds);
  }
  return query;
}

QueryStream::Request QueryStream::Replay(uint64_t i) const {
  Request request;
  request.ranker = i % Rankers().size();
  if (hot_) {
    Rng rng(seed_ * 977 + i);
    request.hot_index = popularity_.Sample(rng) - 1;
    request.query = hot_queries_[request.hot_index];
  } else {
    request.query = At(kReservedBase + (uint64_t{1} << 20) + i);
  }
  return request;
}

QueryStream::Request QueryStream::Next(Cursor& cursor) {
  Request request;
  if (hot_) {
    request.hot_index = popularity_.Sample(cursor.rng) - 1;
    request.query = hot_queries_[request.hot_index];
    request.ranker = cursor.n++ % Rankers().size();
    return request;
  }
  const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  request.query = At(i);
  request.ranker = i % Rankers().size();
  return request;
}

}  // namespace qbs::e2e
