// The system under test, assembled from public APIs for one workload:
// the synthetic database fleet (fixture), the learn → pack → cold-start
// pipeline, the three Select tiers, and the generated query streams.
#ifndef QBS_BENCH_E2E_FLEET_H_
#define QBS_BENCH_E2E_FLEET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker_server.h"
#include "broker/model_registry.h"
#include "broker/remote_selector.h"
#include "broker/selection_broker.h"
#include "corpus/synthetic.h"
#include "fed/federated_selector.h"
#include "fed/federation_server.h"
#include "net/db_server.h"
#include "search/search_engine.h"
#include "search/text_database.h"
#include "service/sampling_service.h"
#include "spans.h"
#include "util/random.h"
#include "util/status.h"

namespace qbs::e2e {

inline constexpr size_t kShards = 4;
inline constexpr size_t kClients = 2;
inline const std::vector<std::string>& Rankers() {
  static const std::vector<std::string> rankers = {"cori", "bgloss", "vgloss",
                                                   "kl"};
  return rankers;
}

/// First-query candidates for sampling: the synthetic generator's ten
/// most frequent content words, which every corpus contains.
const std::vector<std::string>& BootstrapTerms();

/// What a workload runs; see README.md for why each exists.
struct WorkloadShape {
  std::string name;
  std::vector<SyntheticCorpusSpec> corpora;
  /// Documents each database is sampled to (the paper's budget).
  size_t budget = 300;
  /// Sample through loopback DbServers (true) or the engines directly.
  bool remote_sampling = true;
  /// Hot: 128 distinct queries with Zipf(1.0) popularity. Otherwise every
  /// query of the run is distinct, so the result cache never hits.
  bool hot_queries = false;
  /// discover: share of the measured time spent in sampling rounds.
  double rounds_share = 0;
  /// select_during_refresh: a refresher re-samples databases while the
  /// tiers run, and the local/remote tiers serve its registry.
  bool refresh_while_serving = false;
  /// Full set-ups per run; set-up time is their median.
  size_t setups = 7;
  /// LoadStore calls per run, spread over the measurement rounds.
  size_t cold_starts = 32;
};

/// Measurement rounds per run; each runs one slice of every tier.
inline constexpr size_t kRounds = 8;

/// Builds the shape of workload `name` for `seed`; false if unknown.
/// `tiny` shrinks everything to a few databases for the smoke test.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  WorkloadShape* shape);

/// A TextDatabase that forwards to another and records one span per call
/// (`db.client.query`, `db.server.fetch_batch`, ...). Used on both sides
/// of the wire: around the client RemoteTextDatabase and around the
/// SearchEngine a DbServer serves, so client minus server is transport.
/// QueryAndFetch keeps the base composition, so it shows as its parts.
class TimedTextDatabase : public TextDatabase {
 public:
  /// `server_side` picks the "db.server.*" span names over "db.client.*".
  TimedTextDatabase(TextDatabase* inner, bool server_side)
      : inner_(inner), server_side_(server_side) {}

  std::string name() const override { return inner_->name(); }
  Result<std::vector<SearchHit>> RunQuery(std::string_view query,
                                          size_t max_results) override;
  Result<std::string> FetchDocument(std::string_view handle) override;
  Result<std::vector<FetchedDocument>> FetchBatch(
      const std::vector<std::string>& handles) override;

 private:
  TextDatabase* inner_;
  bool server_side_;
};

/// The databases of one workload: engines, plus one loopback DbServer
/// each when the workload samples remotely.
struct Fleet {
  std::vector<std::unique_ptr<SearchEngine>> engines;
  std::vector<std::unique_ptr<DbServer>> servers;
  /// engines[i]->num_docs(), or the budget when smaller.
  std::vector<size_t> expected_docs;
};

/// Generates the corpora (on up to 4 threads) and starts the servers.
Status BuildFleet(const WorkloadShape& shape, Fleet* fleet);

/// One shard broker of the fed tier.
struct ShardNode {
  ModelRegistry registry;
  std::unique_ptr<SelectionBroker> broker;
  std::unique_ptr<BrokerServer> server;
};

/// One learned and served federation: sampling service, packed store,
/// cold-started serving registry, and the three Select tiers.
/// Members are declared so that each server is destroyed (and stopped)
/// before what it serves.
struct Pipeline {
  std::string store_path;
  std::unique_ptr<SamplingService> learner;
  std::unique_ptr<SamplingService> serving;
  /// The registry the local and remote tiers serve.
  const ModelRegistry* tier_registry = nullptr;
  std::unique_ptr<SelectionBroker> broker;
  std::unique_ptr<BrokerServer> broker_server;
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::unique_ptr<FederatedSelector> fed;
  std::unique_ptr<FederationServer> fed_server;
  size_t num_databases = 0;

  /// Set-up accounting: process usage around RefreshAll, and the
  /// documents it examined.
  Usage refresh_start;
  Usage refresh_end;
  size_t documents = 0;
};

/// Registers the fleet with a sampling service: a RemoteTextDatabase per
/// server, or the engines themselves when sampling in-process.
Status AddTargets(const Fleet& fleet, SamplingService* service);

/// Sampling-service options for `shape`. `store_path` empty = no pack.
ServiceOptions LearnerOptions(const WorkloadShape& shape, uint64_t base_seed,
                              const std::string& store_path);

/// Checks every database reached its budget (or its corpus size).
Status CheckBudgets(const SamplingService& service, const Fleet& fleet);

/// Learns the fleet's models, packs them into `store_path`, cold-starts a
/// serving registry from the store and brings up the local, remote and
/// fed tiers. Done when one Select succeeded on every tier.
Status SetUpPipeline(const WorkloadShape& shape, const Fleet& fleet,
                     uint64_t base_seed, const std::string& store_path,
                     const std::string& first_query, Pipeline* pipeline);

/// A RemoteSelector connected to a loopback port.
Result<std::unique_ptr<RemoteSelector>> ConnectSelector(uint16_t port);

/// The queries a workload sends. Thread-safe; each client thread keeps
/// its own Cursor.
class QueryStream {
 public:
  QueryStream(uint64_t seed, bool hot);

  struct Cursor {
    Rng rng;
    uint64_t n = 0;
  };
  Cursor NewCursor(uint64_t thread_index) const;

  struct Request {
    std::string query;
    size_t ranker = 0;  // index into Rankers()
    /// Index into the 128 hot queries; unused for distinct streams.
    size_t hot_index = 0;
  };

  /// Next request for this cursor. Hot streams draw one of 128 queries by
  /// Zipf(1.0) popularity and rotate rankers; distinct streams take the
  /// next index of a run-wide counter, so no (query, ranker) pair
  /// repeats within a run.
  Request Next(Cursor& cursor);

  /// Query i of the stream without advancing it. For hot streams, i
  /// indexes the 128 queries.
  std::string At(uint64_t i) const;

  /// Probe query i (set-up readiness, the oracle): a hot query, or for
  /// distinct streams a reserved index the tiers never send.
  std::string Probe(uint64_t i) const {
    return hot_ ? At(i) : At(kReservedBase + i);
  }

  /// Request i of a replay sample, shaped like the stream: a Zipf draw
  /// keyed by i for hot streams, a reserved index the tiers never send
  /// for distinct ones.
  Request Replay(uint64_t i) const;
  size_t num_hot() const { return hot_queries_.size(); }

  /// Distinct streams send indices below this; probes and replays use
  /// the ones above.
  static constexpr uint64_t kReservedBase = uint64_t{1} << 23;
  bool hot() const { return hot_; }

 private:
  uint64_t seed_;
  bool hot_;
  std::vector<std::string> hot_queries_;
  ZipfSampler popularity_;
  uint64_t mul_ = 1;
  uint64_t add_ = 0;
  std::atomic<uint64_t> next_{0};
};

}  // namespace qbs::e2e

#endif  // QBS_BENCH_E2E_FLEET_H_
