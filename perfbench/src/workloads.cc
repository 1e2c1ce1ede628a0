// The three workloads: set-up, load generation, the bitwise gate, and the
// traced replays. See bench.h for the overview and ../README.md for why
// each workload exists and which layer metric moves which end-to-end one.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/featurizer.h"
#include "core/histogram.h"
#include "core/learned_wmp.h"
#include "core/template_learner.h"
#include "core/workload.h"
#include "engine/batch_scorer.h"
#include "engine/histogram_cache.h"
#include "engine/scoring_service.h"
#include "engine/template_cache.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "net/wire_client.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "sql/parser.h"
#include "trace.h"
#include "util/stats.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

extern char** environ;

namespace perfbench {

using wmp::Result;
using wmp::Status;
namespace core = wmp::core;
namespace engine = wmp::engine;
namespace net = wmp::net;
namespace workloads = wmp::workloads;

void Report(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

namespace {

/// The k the elbow sweep picks on the paper-scale TPC-DS corpus, fixed for
/// the serving model so serving set-up does not pay the sweep (retrain
/// measures it).
constexpr int kServingTemplates = 40;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Novel warm-up requests: enough member draws to fill the server's
/// 65,536-entry template-id cache from the 93,000-query corpus.
constexpr uint64_t kNovelWarmupRequests = 8192;
/// Length of one closed-loop round; an untraced serving run measures
/// `--seconds` of them.
constexpr double kRoundSeconds = 0.5;
/// Untimed closed-loop rounds before the measured ones.
constexpr int kWarmupRounds = 2;
/// Open-loop requests of an untraced run (after the closed-loop rounds, or
/// on the fresh model after the last retrain): latency report and rmse_mb.
constexpr uint64_t kOpenLoopRequests = 4000;
/// The retrain workload retrains and publishes this many consecutive query
/// logs of kRetrainLogQueries each, round after round, so one run's
/// throughput aggregates several inputs rather than one k-means convergence
/// path, and every log is timed at least kRetrainRounds times.
constexpr int kRetrainLogs = 4;
/// A retrain of a recent window of the log: short enough that one run
/// times every log many times over.
constexpr size_t kRetrainLogQueries = 3000;
constexpr int kRetrainRounds = 3;
/// Seed of the corpus and of the serving model, the same for every run:
/// retrain's cost follows the k-means convergence path of its logs, and
/// serving cost the served model's centroids and trees, so a corpus drawn
/// per seed would make throughput measure the seed. `--seed` draws the
/// traffic: the recurring pool, the novel multisets and the open-loop set.
constexpr uint64_t kCorpusSeed = 1;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Closed-loop clients. One client leaves the node the rest of the cores:
/// on a shared four-vCPU host, two clients' throughput swung with the
/// neighbours about three times as much as one client's did.
constexpr size_t kConnections = 1;

/// Workloads per closed-loop request: the queue of pending workloads an
/// admission controller scores in one call, and the node's default flush
/// size (`ScoringServiceOptions::max_batch`).
constexpr size_t kRequestWorkloads = 64;

/// Open-loop senders. One spinning sender keeps 2,000 workloads/s and
/// leaves the other cores to the node.
constexpr size_t kSenders = 1;

// ---------------------------------------------------------------------------
// Child processes (the shipped wmpctl binary).

class ChildProcess {
 public:
  static Result<std::unique_ptr<ChildProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& output_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, output_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      return Status::IOError("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
    }
    const size_t slash = argv[0].rfind('/');
    return std::unique_ptr<ChildProcess>(new ChildProcess(
        pid, slash == std::string::npos ? argv[0] : argv[0].substr(slash + 1)));
  }

  ~ChildProcess() { Terminate(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool Running() {
    if (exited_) return false;
    return Reap(WNOHANG) == 0;
  }

  /// Blocks until the child exits; returns its exit code (-1 if a signal
  /// ended it).
  int Wait() {
    if (!exited_) Reap(0);
    return ExitCode();
  }

  /// SIGTERM (a serving node drains and exits), SIGKILL after 20 s.
  int Terminate() {
    if (exited_) return ExitCode();
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 2000 && Running(); ++i) ::usleep(10000);
    if (!exited_) {
      ::kill(pid_, SIGKILL);
      Reap(0);
    }
    return ExitCode();
  }

  /// High-water resident set (VmHWM) of the running child, in MB; 0 until
  /// the child runs its own program (before the exec it still reports this
  /// process's memory).
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Name:", 0) == 0 &&
          line.find(program_.substr(0, 15)) == std::string::npos) {
        return 0.0;
      }
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

 private:
  ChildProcess(pid_t pid, std::string program)
      : pid_(pid), program_(std::move(program)) {}

  pid_t Reap(int flags) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, flags);
    } while (r < 0 && errno == EINTR);
    if (r == pid_) {
      exited_ = true;
      status_ = status;
    } else if (r < 0) {
      exited_ = true;  // not our child any more; nothing left to reap
      status_ = -1;
    }
    return r;
  }

  int ExitCode() const {
    return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
  }

  pid_t pid_;
  std::string program_;  // basename, as /proc/<pid>/status names it
  bool exited_ = false;
  int status_ = 0;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Set-up: corpus, serving model, node, warm-up.

struct Node {
  workloads::Dataset data;
  std::string address;
  std::string model_path;
  std::vector<std::string> log_paths;  // retrain only
  std::unique_ptr<ChildProcess> server;
  double setup_s = 0.0;
  double train_s = 0.0;  // in-process LearnedWmpModel::Train
  core::LearnedWmpTrainStats train_stats;
};

wmp::engine::ServiceStats ServiceDelta(const engine::ServiceStats& a,
                                       const engine::ServiceStats& b) {
  engine::ServiceStats d = b;
  d.submitted -= a.submitted;
  d.completed -= a.completed;
  d.failed -= a.failed;
  d.flushes -= a.flushes;
  d.flushes_full -= a.flushes_full;
  d.flushes_adaptive -= a.flushes_adaptive;
  d.flushes_deadline -= a.flushes_deadline;
  d.flushes_drain -= a.flushes_drain;
  d.cache_hits -= a.cache_hits;
  d.cache_misses -= a.cache_misses;
  d.template_cache_hits -= a.template_cache_hits;
  d.template_cache_misses -= a.template_cache_misses;
  d.assign_rows -= a.assign_rows;
  d.assign_bound_skips -= a.assign_bound_skips;
  d.assign_early_exits -= a.assign_early_exits;
  d.assign_full_distances -= a.assign_full_distances;
  d.total_latency_us -= a.total_latency_us;
  return d;
}

struct StatsDelta {
  engine::ServiceStats service;
  net::WireServerCounters server;
};

class StatsProbe {
 public:
  explicit StatsProbe(const std::string& address) : client_(address) {}
  Status Mark() {
    WMP_ASSIGN_OR_RETURN(mark_, client_.Stats());
    return Status::OK();
  }
  /// Counters accumulated since the last Mark; re-marks.
  Result<StatsDelta> Delta() {
    WMP_ASSIGN_OR_RETURN(net::StatsResponse now, client_.Stats());
    StatsDelta d;
    d.service = ServiceDelta(mark_.service, now.service);
    // The stats round trips themselves are frames too; leave them out.
    d.server.frames_served = now.server.frames_served -
                             mark_.server.frames_served - 1;
    d.server.protocol_errors =
        now.server.protocol_errors - mark_.server.protocol_errors;
    mark_ = now;
    return d;
  }

 private:
  net::WireClient client_;
  net::StatsResponse mark_;
};

// ---------------------------------------------------------------------------
// Load generation.

struct Served {
  uint64_t index = 0;
  bool ok = false;
  double prediction = 0.0;
  int64_t done_ns = 0;
};

struct Drive {
  std::vector<Served> served;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t refused = 0;  // no response: connect/transport failure
  uint64_t failed = 0;   // a response carrying an error
  std::string first_error;
};

void NoteError(std::mutex* mu, std::string* first, const Status& st) {
  std::lock_guard<std::mutex> lock(*mu);
  if (first->empty()) *first = st.ToString();
}

/// `count` workloads of kBatchSize queries each, laid end to end.
std::vector<core::WorkloadBatch> Workloads(size_t count) {
  std::vector<core::WorkloadBatch> out(count);
  uint32_t q = 0;
  for (core::WorkloadBatch& b : out) {
    for (int j = 0; j < kBatchSize; ++j) b.query_indices.push_back(q++);
  }
  return out;
}

std::vector<core::WorkloadBatch> OneWorkload() { return Workloads(1); }

/// Closed loop: `connections` clients, one request in flight each. Request
/// k carries workloads first + [k * per_request, (k + 1) * per_request) of
/// `phase` (client c sends requests c, c+C, …), until `max_workloads` are
/// sent or `seconds` run out (seconds <= 0: budget only).
Drive DriveClosed(const std::string& address,
                  const std::vector<workloads::QueryRecord>& corpus,
                  const RequestStream& stream, Phase phase, uint64_t first,
                  size_t connections, size_t per_request,
                  uint64_t max_workloads, double seconds) {
  Drive d;
  std::vector<std::vector<Served>> per(connections);
  std::atomic<uint64_t> refused{0}, failed{0};
  std::mutex error_mu;
  d.start_ns = NowNs();
  const int64_t deadline =
      seconds > 0 ? d.start_ns + static_cast<int64_t>(seconds * 1e9)
                  : std::numeric_limits<int64_t>::max();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::WireClient client(address);
      const std::string tenant = "closed-" + std::to_string(c);
      std::vector<uint32_t> members;
      std::vector<workloads::QueryRecord> records;
      for (uint64_t k = c; k * per_request < max_workloads; k += connections) {
        if (NowNs() >= deadline) break;
        const uint64_t begin = k * per_request;
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(per_request, max_workloads - begin));
        records.clear();
        for (size_t j = 0; j < n; ++j) {
          stream.Members(phase, first + begin + j, &members);
          for (uint32_t q : members) records.push_back(CloneForWire(corpus[q]));
        }
        auto got = client.ScoreWorkloads(tenant, records, Workloads(n));
        const int64_t done = NowNs();
        for (size_t j = 0; j < n; ++j) {
          Served s;
          s.index = first + begin + j;
          s.done_ns = done;
          if (!got.ok()) {
            refused.fetch_add(1);
            NoteError(&error_mu, &d.first_error, got.status());
          } else if (!(*got)[j].ok()) {
            failed.fetch_add(1);
            NoteError(&error_mu, &d.first_error, (*got)[j].status());
          } else {
            s.ok = true;
            s.prediction = *(*got)[j];
          }
          per[c].push_back(s);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  d.end_ns = std::min(NowNs(), deadline);
  for (auto& v : per) d.served.insert(d.served.end(), v.begin(), v.end());
  d.refused = refused.load();
  d.failed = failed.load();
  return d;
}

/// Waits for `when_ns` by spinning on the clock. A timed sleep wakes tens
/// of microseconds late at the median (milliseconds at p99) on a
/// virtualized box, and that generator lag would read as service latency;
/// a spinning sender keeps its lag near zero.
void WaitUntil(int64_t when_ns) {
  while (NowNs() < when_ns) {
  }
}

/// What the traced open-loop phase does besides the real round trip: the
/// in-process mirrors of each layer the request crosses.
struct TraceMirror {
  engine::ScoringService* service = nullptr;
  std::vector<SpanLog>* logs = nullptr;  // one per sender
};

struct OpenLoop {
  std::vector<Served> served;       // index-aligned with the phase
  std::vector<double> latency_us;   // from the due time; +inf on a miss
  std::vector<double> lag_us;       // send time - due time
  uint64_t refused = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Open loop at `rate` workloads/s over indices [first, first + count) of
/// `phase`: request i is due at start + (i - first) / rate and is timed
/// from that due time. Sender s takes every `senders`-th request.
OpenLoop DriveOpen(const std::string& address,
                   const std::vector<workloads::QueryRecord>& corpus,
                   const RequestStream& stream, Phase phase, uint64_t first,
                   uint64_t count, size_t senders, double rate,
                   const TraceMirror* mirror = nullptr) {
  OpenLoop o;
  o.served.resize(count);
  o.latency_us.assign(count, 0.0);
  o.lag_us.assign(count, 0.0);
  std::atomic<uint64_t> refused{0}, failed{0};
  std::mutex error_mu;
  // Leave every sender time to connect before the first request is due.
  const int64_t start = NowNs() + 50'000'000;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      net::WireClient client(address);
      (void)client.Connect();
      const std::string tenant = "open-" + std::to_string(s);
      const auto batches = OneWorkload();
      SpanLog* log = mirror != nullptr ? &(*mirror->logs)[s] : nullptr;
      std::vector<uint32_t> members;
      for (uint64_t k = s; k < count; k += senders) {
        const uint64_t i = first + k;
        stream.Members(phase, i, &members);
        const auto records = WireMembers(corpus, members);
        const int64_t due = start + DueOffsetNs(k, rate);
        WaitUntil(due);
        const int64_t sent = NowNs();
        uint32_t root = SpanLog::kNoParent;
        if (log != nullptr) {
          root = log->Add("request", SpanLog::kNoParent, i, due, due);
          log->Add("loadgen.lag", root, i, due, sent);
          // Client encode and server decode, as the wire path runs them.
          uint32_t id = log->Begin("net.encode", root, i);
          const std::string payload =
              net::EncodeScoreRequest(tenant, records, batches);
          log->End(id);
          id = log->Begin("net.decode", root, i);
          auto decoded = net::DecodeScoreRequest(payload);
          log->End(id);
          // The engine on its own: submit -> future ready.
          if (decoded.ok()) {
            id = log->Begin("engine.sojourn", root, i);
            auto local = mirror->service
                             ->Submit(tenant, decoded->records,
                                      decoded->batches[0].query_indices)
                             .get();
            log->End(id);
            (void)local;
          }
        }
        const uint32_t rt =
            log != nullptr ? log->Begin("net.roundtrip", root, i) : 0;
        auto got = client.ScoreWorkloads(tenant, records, batches);
        if (log != nullptr) log->End(rt);
        Served& out = o.served[k];
        out.index = i;
        if (!got.ok()) {
          refused.fetch_add(1);
          NoteError(&error_mu, &o.first_error, got.status());
        } else if (!(*got)[0].ok()) {
          failed.fetch_add(1);
          NoteError(&error_mu, &o.first_error, (*got)[0].status());
        } else {
          out.ok = true;
          out.prediction = *(*got)[0];
        }
        if (log != nullptr && out.ok) {
          const uint32_t id = log->Begin("net.response_codec", root, i);
          net::ScoreResponse response;
          response.ok = {1};
          response.predictions = {out.prediction};
          response.errors = {""};
          auto echoed = net::DecodeScoreResponse(
              net::EncodeScoreResponse(response));
          log->End(id);
          (void)echoed;
        }
        out.done_ns = NowNs();
        if (log != nullptr) log->End(root);
        o.lag_us[k] = static_cast<double>(sent - due) / 1e3;
        o.latency_us[k] = out.ok ? static_cast<double>(out.done_ns - due) / 1e3
                                 : std::numeric_limits<double>::infinity();
      }
    });
  }
  for (auto& t : threads) t.join();
  o.refused = refused.load();
  o.failed = failed.load();
  return o;
}

// ---------------------------------------------------------------------------
// The correctness gate.

/// Bitwise check of served predictions against in-process
/// engine::BatchScorer::ScoreWorkloads on the artifact the node loaded.
/// Returns the number of mismatches (requests that failed are skipped —
/// they are already counted as failures).
Result<uint64_t> CountMismatches(
    const std::string& model_path,
    const std::vector<workloads::QueryRecord>& corpus,
    const RequestStream& stream, Phase phase,
    const std::vector<Served>& served) {
  WMP_ASSIGN_OR_RETURN(core::LearnedWmpModel model,
                       core::LearnedWmpModel::LoadFromFile(model_path));
  engine::BatchScorer reference(&model);
  uint64_t mismatches = 0;
  constexpr size_t kChunk = 8192;
  std::vector<uint32_t> members;
  for (size_t begin = 0; begin < served.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, served.size());
    // Each distinct workload of the chunk is scored once (recurring
    // traffic repeats its pool).
    std::map<std::vector<uint32_t>, size_t> distinct;
    std::vector<core::WorkloadBatch> batches;
    std::vector<std::pair<const Served*, size_t>> rows;
    for (size_t r = begin; r < end; ++r) {
      if (!served[r].ok) continue;
      stream.Members(phase, served[r].index, &members);
      auto [it, inserted] = distinct.emplace(members, batches.size());
      if (inserted) {
        core::WorkloadBatch b;
        b.query_indices = members;
        batches.push_back(std::move(b));
      }
      rows.emplace_back(&served[r], it->second);
    }
    if (batches.empty()) continue;
    WMP_ASSIGN_OR_RETURN(engine::BatchScoreResult want,
                         reference.ScoreWorkloads(corpus, batches));
    for (const auto& [row, j] : rows) {
      if (row->prediction != want.predictions[j]) ++mismatches;
    }
  }
  return mismatches;
}

double RmseMb(const std::vector<workloads::QueryRecord>& corpus,
              const RequestStream& stream, Phase phase,
              const std::vector<Served>& served) {
  double sum = 0.0;
  size_t n = 0;
  std::vector<uint32_t> members;
  for (const Served& s : served) {
    if (!s.ok) continue;
    stream.Members(phase, s.index, &members);
    const double err = s.prediction - WorkloadLabel(corpus, members);
    sum += err * err;
    ++n;
  }
  return n > 0 ? std::sqrt(sum / static_cast<double>(n)) : 0.0;
}

// ---------------------------------------------------------------------------
// Set-up.

Status WaitReady(const std::string& address, ChildProcess* server) {
  net::WireClient client(address);
  for (int attempt = 0; attempt < 3000; ++attempt) {
    if (client.Ping().ok()) return Status::OK();
    if (!server->Running()) {
      return Status::Internal("wmpctl serve exited during start-up");
    }
    ::usleep(10000);
  }
  return Status::DeadlineExceeded("wmpctl serve did not come up in 30 s");
}

enum class Kind { kRecurring, kNovel, kRetrain };

/// One full set-up: build the corpus, train and save the serving model
/// (and, for retrain, write the query log), start `wmpctl serve` with its
/// default server and cache sizes, and warm it up.
Result<Node> SetUp(const RunOptions& options, Kind kind,
                   const RequestStream& stream, int index) {
  Node node;
  const int64_t t0 = NowNs();
  workloads::DatasetOptions dopt;
  dopt.num_queries = workloads::PaperQueryCount(workloads::Benchmark::kTpcds);
  dopt.seed = kCorpusSeed;
  WMP_ASSIGN_OR_RETURN(node.data, workloads::BuildDataset(
                                      workloads::Benchmark::kTpcds, dopt));
  const std::string prefix =
      options.workdir + "/node" + std::to_string(index);
  if (kind == Kind::kRetrain) {
    // Consecutive slices of the corpus, each written as its own log. The
    // records are move-only, so each slice is moved out and back.
    auto& records = node.data.records;
    for (int l = 0; l < kRetrainLogs; ++l) {
      const size_t begin = static_cast<size_t>(l) * kRetrainLogQueries;
      const size_t end = std::min(records.size(), begin + kRetrainLogQueries);
      std::vector<workloads::QueryRecord> slice;
      slice.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) slice.push_back(std::move(records[i]));
      node.log_paths.push_back(prefix + "-log" + std::to_string(l) + ".txt");
      const Status written =
          workloads::WriteQueryLog(slice, node.log_paths.back());
      for (size_t i = begin; i < end; ++i) {
        records[i] = std::move(slice[i - begin]);
      }
      WMP_RETURN_IF_ERROR(written);
    }
  }
  core::LearnedWmpOptions lopt;
  lopt.templates.num_templates = kServingTemplates;
  lopt.batch_size = kBatchSize;
  lopt.seed = kCorpusSeed;
  const int64_t t_train = NowNs();
  WMP_ASSIGN_OR_RETURN(
      core::LearnedWmpModel model,
      core::LearnedWmpModel::Train(node.data.records,
                                   core::AllIndices(node.data.records.size()),
                                   *node.data.generator, lopt));
  node.train_s = Seconds(NowNs() - t_train);
  node.train_stats = model.train_stats();
  node.model_path = prefix + ".wmp";
  WMP_RETURN_IF_ERROR(model.SaveToFile(node.model_path));
  node.address = "unix:" + prefix + ".sock";
  WMP_ASSIGN_OR_RETURN(
      node.server,
      ChildProcess::Spawn({options.wmpctl, "serve", "--listen=" + node.address,
                           "--model=" + node.model_path},
                          prefix + ".serve.out"));
  WMP_RETURN_IF_ERROR(WaitReady(node.address, node.server.get()));
  const uint64_t warm = kind == Kind::kNovel ? kNovelWarmupRequests
                                             : kRecurringPoolSize;
  const Drive d =
      DriveClosed(node.address, node.data.records, stream, Phase::kWarmup, 0,
                  kConnections, kRequestWorkloads, warm, 0.0);
  if (d.refused + d.failed > 0) {
    return Status::Internal("warm-up failed: " + d.first_error);
  }
  node.setup_s = Seconds(NowNs() - t0);
  return node;
}

/// kSetupRepeats set-ups; keeps the last node and returns each set-up's
/// time and host steal share.
Result<Node> SetUpRepeated(const RunOptions& options, Kind kind,
                           const RequestStream& stream, int repeats,
                           std::vector<double>* setup_times,
                           std::vector<double>* setup_steal) {
  Result<Node> node = Status::Internal("no set-up ran");
  for (int r = 0; r < repeats; ++r) {
    if (node.ok()) {
      node->server->Terminate();
      node = Status::Internal("replaced");
    }
    const HostCpu cpu = ReadHostCpu();
    node = SetUp(options, kind, stream, r);
    if (!node.ok()) return node.status();
    setup_times->push_back(node->setup_s);
    setup_steal->push_back(StealShare(cpu, ReadHostCpu()));
    Report("  set-up %d: %.3f s (in-process Train %.3f s, host steal %.1f%%)",
           r + 1, node->setup_s, node->train_s, 100.0 * setup_steal->back());
  }
  return node;
}

// ---------------------------------------------------------------------------
// Reporting helpers.

void ReportLatency(const char* phase, const OpenLoop& o, double rate) {
  const LatencySummary lat = SummarizeLatency(o.latency_us);
  const LatencySummary lag = SummarizeLatency(o.lag_us);
  Report("  %s: open loop at %.0f workloads/s — sent %zu, succeeded %zu, "
         "failed %llu, refused %llu",
         phase, rate, o.served.size(),
         o.served.size() - static_cast<size_t>(o.failed + o.refused),
         static_cast<unsigned long long>(o.failed),
         static_cast<unsigned long long>(o.refused));
  Report("    latency from due time: p50 %.1f us, p90 %.1f us, p%g %.1f us "
         "(n=%zu, %zu misses); generator lag p50 %.1f us, p%g %.1f us",
         lat.p50_us, lat.p90_us, 100 * lat.tail_p, lat.tail_us, lat.samples,
         lat.misses, lag.p50_us, 100 * lag.tail_p, lag.tail_us);
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void ReportStats(const char* phase, const StatsDelta& d) {
  const engine::ServiceStats& s = d.service;
  Report("    server (%s): %llu frames, %llu protocol errors, %llu flushes "
         "(avg batch %.2f: %llu full, %llu adaptive, %llu deadline), "
         "histogram hit %.4f, template hit %.4f",
         phase, static_cast<unsigned long long>(d.server.frames_served),
         static_cast<unsigned long long>(d.server.protocol_errors),
         static_cast<unsigned long long>(s.flushes), s.avg_batch(),
         static_cast<unsigned long long>(s.flushes_full),
         static_cast<unsigned long long>(s.flushes_adaptive),
         static_cast<unsigned long long>(s.flushes_deadline),
         s.cache_hit_rate(), s.template_cache_hit_rate());
}

/// Every per-layer metric, in one fixed order; a layer that does no work on
/// a workload reports 0 (on wire_* that includes sql/ and plan/: served
/// records carry precomputed plan features, so serving never parses or
/// plans).
struct Layers {
  double request_bytes = 0, encode_us = 0, decode_us = 0,
         response_codec_us = 0, transport_us = 0, protocol_errors = 0,
         frames_served = 0, publish_s = 0, verify_s = 0;
  double sojourn_p50 = 0, sojourn_p99 = 0, queue_wait_us = 0,
         flush_batch_avg = 0, flushes_full = 0, flushes_adaptive = 0,
         flushes_deadline = 0, hist_hit_rate = 0, tmpl_hit_rate = 0,
         score_us = 0, engine_self_us = 0;
  double assign_us_per_query = 0, bin_us = 0, choose_k_s = 0, train_s = 0,
         train_templates_s = 0, train_histograms_s = 0, train_regressor_s = 0,
         precomputed_features_frac = 0;
  double predict_us = 0, full_distances_per_row = 0, bound_skip_frac = 0;
  double ingest_s = 0, parse_s = 0, explain_parse_s = 0, features_s = 0;
  double open_p50_us = 0, open_p90_us = 0, open_p99_us = 0, lag_p99_us = 0,
         wire_unattributed_us = 0,
         retrain_unattributed_s = 0, overhead_frac = 0;

  void AppendTo(RunOutcome* out) const {
    out->Add("net.request_bytes", request_bytes, "bytes");
    out->Add("net.encode_us", encode_us, "us");
    out->Add("net.decode_us", decode_us, "us");
    out->Add("net.response_codec_us", response_codec_us, "us");
    out->Add("net.transport_us", transport_us, "us");
    out->Add("net.protocol_errors", protocol_errors, "count");
    out->Add("net.frames_served", frames_served, "count");
    out->Add("net.publish_s", publish_s, "s");
    out->Add("net.verify_s", verify_s, "s");
    out->Add("engine.sojourn_us_p50", sojourn_p50, "us");
    out->Add("engine.sojourn_us_p99", sojourn_p99, "us");
    out->Add("engine.queue_wait_us", queue_wait_us, "us");
    out->Add("engine.flush_batch_avg", flush_batch_avg, "workloads");
    out->Add("engine.flushes_full", flushes_full, "count");
    out->Add("engine.flushes_adaptive", flushes_adaptive, "count");
    out->Add("engine.flushes_deadline", flushes_deadline, "count");
    out->Add("engine.hist_hit_rate", hist_hit_rate, "ratio");
    out->Add("engine.tmpl_hit_rate", tmpl_hit_rate, "ratio");
    out->Add("engine.score_us_per_workload", score_us, "us");
    out->Add("engine.self_us_per_workload", engine_self_us, "us");
    out->Add("core.assign_us_per_query", assign_us_per_query, "us");
    out->Add("core.bin_us_per_workload", bin_us, "us");
    out->Add("core.choose_k_s", choose_k_s, "s");
    out->Add("core.train_s", train_s, "s");
    out->Add("core.train_templates_s", train_templates_s, "s");
    out->Add("core.train_histograms_s", train_histograms_s, "s");
    out->Add("core.train_regressor_s", train_regressor_s, "s");
    out->Add("core.precomputed_features_frac", precomputed_features_frac,
             "ratio");
    out->Add("ml.predict_us_per_workload", predict_us, "us");
    out->Add("ml.assign_full_distances_per_row", full_distances_per_row,
             "count");
    out->Add("ml.assign_bound_skip_frac", bound_skip_frac, "ratio");
    out->Add("workloads.ingest_s", ingest_s, "s");
    out->Add("sql.parse_s", parse_s, "s");
    out->Add("plan.explain_parse_s", explain_parse_s, "s");
    out->Add("plan.features_s", features_s, "s");
    out->Add("open_loop.latency_p50_us", open_p50_us, "us");
    out->Add("open_loop.latency_p90_us", open_p90_us, "us");
    out->Add("open_loop.latency_p99_us", open_p99_us, "us");
    out->Add("loadgen.lag_p99_us", lag_p99_us, "us");
    out->Add("wire.unattributed_us", wire_unattributed_us, "us");
    out->Add("retrain.unattributed_s", retrain_unattributed_s, "s");
    out->Add("trace.overhead_frac", overhead_frac, "ratio");
  }
};

void FillServerLayers(const StatsDelta& d, Layers* l) {
  const engine::ServiceStats& s = d.service;
  l->protocol_errors = static_cast<double>(d.server.protocol_errors);
  l->frames_served = static_cast<double>(d.server.frames_served);
  l->flush_batch_avg = s.avg_batch();
  l->flushes_full = static_cast<double>(s.flushes_full);
  l->flushes_adaptive = static_cast<double>(s.flushes_adaptive);
  l->flushes_deadline = static_cast<double>(s.flushes_deadline);
  l->hist_hit_rate = s.cache_hit_rate();
  l->tmpl_hit_rate = s.template_cache_hit_rate();
  if (s.assign_rows > 0) {
    const double rows = static_cast<double>(s.assign_rows);
    const double k = static_cast<double>(kServingTemplates);
    l->full_distances_per_row = static_cast<double>(s.assign_full_distances) /
                                rows;
    l->bound_skip_frac = static_cast<double>(s.assign_bound_skips) / (rows * k);
  }
}

/// Adds a finished drive's outcome to the run's accounting.
void Account(RunOutcome* out, size_t served, uint64_t refused, uint64_t failed,
             uint64_t mismatches) {
  out->attempted += served;
  out->failed += refused + failed + mismatches;
  if (mismatches > 0) out->correct = false;
}

Status GateOrFail(RunOutcome* out, const Node& node, const RequestStream& stream,
                  Phase phase, const std::vector<Served>& served,
                  uint64_t refused, uint64_t failed, const char* what) {
  const int64_t t0 = NowNs();
  WMP_ASSIGN_OR_RETURN(uint64_t mismatches,
                       CountMismatches(node.model_path, node.data.records,
                                       stream, phase, served));
  Account(out, served.size(), refused, failed, mismatches);
  Report("    bitwise gate (%s): %zu served, %llu mismatches vs in-process "
         "BatchScorer on the same artifact (%.2f s)",
         what, served.size(), static_cast<unsigned long long>(mismatches),
         Seconds(NowNs() - t0));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced replays of the serving path from public entry points.

/// engine::BatchScorer with its own default-sized caches (what one server
/// shard runs per flush), warmed on `warm`; returns the mean time per
/// workload, in µs, over `count` requests of `phase` from `first`.
double ReplayScorerUs(
    const std::shared_ptr<const core::LearnedWmpModel>& model,
    const std::vector<workloads::QueryRecord>& corpus,
    const RequestStream& stream,
    const std::vector<std::pair<Phase, uint64_t>>& warm, Phase phase,
    uint64_t first, uint64_t count) {
  engine::HistogramCache hist;
  engine::TemplateIdCache tmpl;
  engine::BatchScorerOptions bopt;
  bopt.cache = &hist;
  bopt.template_cache = &tmpl;
  engine::BatchScorer scorer(model, bopt);
  const auto batches = OneWorkload();
  std::vector<uint32_t> members;
  for (const auto& [p, n] : warm) {
    for (uint64_t i = 0; i < n; ++i) {
      stream.Members(p, i, &members);
      (void)scorer.ScoreWorkloads(WireMembers(corpus, members), batches);
    }
  }
  double total_ns = 0.0;
  for (uint64_t i = first; i < first + count; ++i) {
    stream.Members(phase, i, &members);
    const auto records = WireMembers(corpus, members);
    const int64_t t0 = NowNs();
    (void)scorer.ScoreWorkloads(records, batches);
    total_ns += static_cast<double>(NowNs() - t0);
  }
  return total_ns / 1e3 / static_cast<double>(count);
}

/// The scorer's pipeline rebuilt from core/ml/engine public pieces so each
/// layer gets its own span: histogram-cache probe, template-id probe,
/// AssignTemplateIds on the misses (featurize -> scale -> assign),
/// histogram build, PredictFromHistogramMatrix. Returns the prediction.
Result<double> ReplicaScore(const core::LearnedWmpModel& model,
                            engine::HistogramCache* hist,
                            engine::TemplateIdCache* tmpl,
                            const std::vector<workloads::QueryRecord>& records,
                            SpanLog* log, uint64_t request,
                            size_t* miss_queries) {
  const size_t k = static_cast<size_t>(model.templates().num_templates());
  const uint32_t root =
      log != nullptr ? log->Begin("engine.score", SpanLog::kNoParent, request)
                     : 0;
  const size_t n = records.size();
  std::vector<uint32_t> all(n);
  for (uint32_t q = 0; q < n; ++q) all[q] = q;
  wmp::ml::Matrix h(1, k);
  const uint64_t key = core::WorkloadFingerprint(records, all);
  if (!hist->Lookup(key, h.RowPtr(0), k, 0)) {
    std::vector<uint64_t> keys(n);
    for (size_t q = 0; q < n; ++q) keys[q] = core::QueryFingerprint(records[q]);
    std::vector<int> ids(n);
    std::vector<uint8_t> hit(n, 0);
    tmpl->LookupBatch(keys.data(), n, 0, ids.data(), hit.data());
    std::vector<uint32_t> miss;
    for (uint32_t q = 0; q < n; ++q) {
      if (!hit[q]) miss.push_back(q);
    }
    if (!miss.empty()) {
      const uint32_t id =
          log != nullptr ? log->Begin("core.assign", root, request) : 0;
      WMP_ASSIGN_OR_RETURN(std::vector<int> miss_ids,
                           model.AssignTemplateIds(records, miss, nullptr));
      if (log != nullptr) log->End(id);
      std::vector<uint64_t> miss_keys(miss.size());
      for (size_t j = 0; j < miss.size(); ++j) {
        ids[miss[j]] = miss_ids[j];
        miss_keys[j] = keys[miss[j]];
      }
      tmpl->InsertBatch(miss_keys.data(), miss_ids.data(), miss.size(), 0);
      *miss_queries += miss.size();
    }
    const uint32_t id =
        log != nullptr ? log->Begin("core.bin", root, request) : 0;
    WMP_RETURN_IF_ERROR(core::BuildHistogramRows(
        ids, {0, n}, static_cast<int>(k), {0}, &h));
    if (log != nullptr) log->End(id);
    hist->Insert(key, h.RowPtr(0), k, 0);
  }
  const uint32_t id =
      log != nullptr ? log->Begin("ml.predict", root, request) : 0;
  WMP_ASSIGN_OR_RETURN(std::vector<double> pred,
                       model.PredictFromHistogramMatrix(std::move(h)));
  if (log != nullptr) {
    log->End(id);
    log->End(root);
  }
  return pred[0];
}

double MeanSelfUs(const std::map<std::string, SpanLog::Totals>& t,
                  const std::string& name, double per) {
  auto it = t.find(name);
  if (it == t.end() || per <= 0) return 0.0;
  return it->second.self_ns / 1e3 / per;
}

double MeanUs(const std::map<std::string, SpanLog::Totals>& t,
              const std::string& name) {
  auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / 1e3 / static_cast<double>(it->second.count);
}

double PercentileUs(const std::map<std::string, SpanLog::Totals>& t,
                    const std::string& name, double p) {
  auto it = t.find(name);
  if (it == t.end()) return 0.0;
  std::vector<double> d = it->second.durations_ns;
  return wmp::util::PercentileInPlace(&d, p) / 1e3;
}

}  // namespace

// ---------------------------------------------------------------------------
// wire_recurring / wire_novel

RunOutcome RunWire(const RunOptions& options, bool novel) {
  RunOutcome out;
  const Kind kind = novel ? Kind::kNovel : Kind::kRecurring;
  const RequestStream stream(
      novel ? StreamKind::kNovel : StreamKind::kRecurring, options.seed,
      workloads::PaperQueryCount(workloads::Benchmark::kTpcds));
  const double half = 0.5 * options.seconds;
  const uint64_t open_count =
      static_cast<uint64_t>(std::llround(kOpenLoopRate * half));
  const auto fail = [&](const Status& st) {
    Report("error: %s", st.ToString().c_str());
    out.correct = false;
    out.failed = std::max<uint64_t>(out.failed, 1);
    out.attempted = std::max<uint64_t>(out.attempted, 1);
    return out;
  };

  std::vector<double> setup_times, setup_steal;
  auto node = SetUpRepeated(options, kind, stream,
                            options.trace ? 1 : kSetupRepeats, &setup_times,
                            &setup_steal);
  if (!node.ok()) return fail(node.status());
  StatsProbe probe(node->address);
  if (Status st = probe.Mark(); !st.ok()) return fail(st);
  const auto& corpus = node->data.records;

  if (!options.trace) {
    // Closed-loop rounds over the whole run, after kWarmupRounds untimed
    // ones. Throughput is the upper quartile of the rounds: on a shared host
    // noise only ever slows a round down, so the fastest quarter is the
    // steady figure where the median drifts with the neighbours.
    const int rounds = std::max(1, static_cast<int>(std::lround(
                                       options.seconds / kRoundSeconds)));
    std::vector<double> round_rates, round_steal;
    std::vector<Served> closed_served;
    uint64_t closed_refused = 0, closed_failed = 0;
    for (int r = 0; r < kWarmupRounds + rounds; ++r) {
      const HostCpu cpu = ReadHostCpu();
      const Drive closed = DriveClosed(
          node->address, corpus, stream, Phase::kClosed,
          static_cast<uint64_t>(r) << 32, kConnections, kRequestWorkloads,
          UINT64_MAX, kRoundSeconds);
      size_t done = 0;
      for (const Served& s : closed.served) done += s.ok ? 1 : 0;
      if (r >= kWarmupRounds) {
        round_rates.push_back(static_cast<double>(done * kBatchSize) /
                              Seconds(closed.end_ns - closed.start_ns));
        round_steal.push_back(StealShare(cpu, ReadHostCpu()));
      }
      closed_served.insert(closed_served.end(), closed.served.begin(),
                           closed.served.end());
      closed_refused += closed.refused;
      closed_failed += closed.failed;
    }
    // A fixed seeded set of single-workload admission requests at the
    // offered rate: the latency report and rmse_mb.
    const OpenLoop open =
        DriveOpen(node->address, corpus, stream, Phase::kOpen, 0,
                  kOpenLoopRequests, kSenders, kOpenLoopRate);
    const std::vector<Served>& open_served = open.served;
    const std::vector<double>& open_latency = open.latency_us;
    const uint64_t open_refused = open.refused, open_failed = open.failed;
    auto stats = probe.Delta();
    if (!stats.ok()) return fail(stats.status());
    std::vector<double> sorted = round_rates;
    const double qps = wmp::util::PercentileInPlace(&sorted, 0.75);
    Report("  closed loop: %zu connections, %zu workloads a request, %d + %d "
           "warm-up rounds of %.2f s — sent %zu, failed %llu, refused %llu; "
           "%.0f queries/s (upper quartile of the rounds; min %.0f, median "
           "%.0f, max %.0f; host steal %.1f..%.1f%%)",
           kConnections, kRequestWorkloads, rounds, kWarmupRounds, kRoundSeconds,
           closed_served.size(),
           static_cast<unsigned long long>(closed_failed),
           static_cast<unsigned long long>(closed_refused), qps,
           *std::min_element(round_rates.begin(), round_rates.end()),
           Median(round_rates),
           *std::max_element(round_rates.begin(), round_rates.end()),
           100.0 * *std::min_element(round_steal.begin(), round_steal.end()),
           100.0 * *std::max_element(round_steal.begin(), round_steal.end()));
    const LatencySummary latency = SummarizeLatency(open_latency);
    Report("  open loop overall: sent %zu, p50 %.1f us, p90 %.1f us, p%g "
           "%.1f us (n=%zu, %zu misses)",
           open_served.size(), latency.p50_us, latency.p90_us,
           100 * latency.tail_p, latency.tail_us, latency.samples,
           latency.misses);
    ReportStats("measured rounds", *stats);
    const double peak_rss = node->server->PeakRssMb();
    node->server->Terminate();

    if (Status st = GateOrFail(&out, *node, stream, Phase::kClosed,
                               closed_served, closed_refused, closed_failed,
                               "closed loop");
        !st.ok()) {
      return fail(st);
    }
    if (Status st = GateOrFail(&out, *node, stream, Phase::kOpen, open_served,
                               open_refused, open_failed, "open loop");
        !st.ok()) {
      return fail(st);
    }
    const double success =
        out.attempted > 0
            ? 1.0 - static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted)
            : 0.0;
    out.Add("throughput_qps", qps, "queries/s");
    out.Add("success_frac", success, "ratio");
    out.Add("rmse_mb", RmseMb(corpus, stream, Phase::kOpen, open_served), "MB");
    out.Add("setup_s", Median(setup_times), "s");
    out.Add("peak_rss_mb", peak_rss, "MB");
    return out;
  }

  // ---- traced run ----
  Layers layers;
  // Serving set-up trains the node's model (no k sweep); report it with
  // the program's own phase split.
  layers.train_s = node->train_s;
  layers.train_templates_s = node->train_stats.template_ms / 1e3;
  layers.train_histograms_s = node->train_stats.histogram_ms / 1e3;
  layers.train_regressor_s = node->train_stats.regressor_ms / 1e3;
  // 1) Untraced open loop: the end-to-end reference.
  const OpenLoop untraced = DriveOpen(node->address, corpus, stream,
                                      Phase::kOpen, 0, open_count,
                                      kSenders, kOpenLoopRate);
  ReportLatency("untraced open", untraced, kOpenLoopRate);
  if (auto d = probe.Delta(); !d.ok()) return fail(d.status());
  // 2) In-process engine mirror, warmed on what the node has seen.
  auto model = core::LearnedWmpModel::LoadFromFile(node->model_path);
  if (!model.ok()) return fail(model.status());
  auto shared = std::make_shared<const core::LearnedWmpModel>(std::move(*model));
  engine::ScoringService service({shared});
  const std::vector<std::pair<Phase, uint64_t>> seen = {
      {Phase::kWarmup, novel ? kNovelWarmupRequests : kRecurringPoolSize},
      {Phase::kOpen, open_count}};
  {
    std::vector<uint32_t> members;
    for (const auto& [p, n] : seen) {
      for (uint64_t i = 0; i < n; ++i) {
        stream.Members(p, i, &members);
        const auto records = WireMembers(corpus, members);
        (void)service.Submit("mirror", records, OneWorkload()[0].query_indices)
            .get();
      }
    }
  }
  // 3) Traced open loop over the continuation of the same stream.
  std::vector<SpanLog> logs(kSenders);
  TraceMirror mirror{&service, &logs};
  const OpenLoop traced =
      DriveOpen(node->address, corpus, stream, Phase::kOpen, open_count,
                open_count, kSenders, kOpenLoopRate, &mirror);
  ReportLatency("traced open", traced, kOpenLoopRate);
  auto traced_stats = probe.Delta();
  if (!traced_stats.ok()) return fail(traced_stats.status());
  ReportStats("traced", *traced_stats);
  FillServerLayers(*traced_stats, &layers);
  service.Stop();
  SpanLog spans;
  for (SpanLog& l : logs) spans.Merge(std::move(l));

  // 4) Scorer and per-layer replays over the traced phase's requests.
  const double score_us = ReplayScorerUs(shared, corpus, stream, seen,
                                           Phase::kOpen, open_count, open_count);
  engine::HistogramCache hist;
  engine::TemplateIdCache tmpl;
  size_t miss_queries = 0, replica_mismatches = 0;
  {
    std::vector<uint32_t> members;
    for (const auto& [p, n] : seen) {
      for (uint64_t i = 0; i < n; ++i) {
        stream.Members(p, i, &members);
        (void)ReplicaScore(*shared, &hist, &tmpl, WireMembers(corpus, members),
                           nullptr, i, &miss_queries);
      }
    }
    miss_queries = 0;
    size_t with_features = 0, members_total = 0;
    for (uint64_t k = 0; k < open_count; ++k) {
      const uint64_t i = open_count + k;
      stream.Members(Phase::kOpen, i, &members);
      const auto records = WireMembers(corpus, members);
      for (const auto& r : records) {
        ++members_total;
        if (r.plan_features.size() == wmp::plan::kPlanFeatureDim &&
            r.plan == nullptr) {
          ++with_features;
        }
      }
      auto pred = ReplicaScore(*shared, &hist, &tmpl, records, &spans, i,
                               &miss_queries);
      if (!pred.ok() ||
          (traced.served[k].ok && *pred != traced.served[k].prediction)) {
        ++replica_mismatches;
      }
    }
    layers.precomputed_features_frac =
        static_cast<double>(with_features) / static_cast<double>(members_total);
  }
  const auto totals = spans.Summarize();
  const double n = static_cast<double>(open_count);
  layers.request_bytes = [&] {
    std::vector<uint32_t> members;
    stream.Members(Phase::kOpen, open_count, &members);
    return static_cast<double>(
        net::EncodeScoreRequest("open-0", WireMembers(corpus, members),
                                OneWorkload())
            .size());
  }();
  layers.encode_us = MeanUs(totals, "net.encode");
  layers.decode_us = MeanUs(totals, "net.decode");
  layers.response_codec_us = MeanUs(totals, "net.response_codec");
  const double sojourn = MeanUs(totals, "engine.sojourn");
  const double roundtrip = MeanUs(totals, "net.roundtrip");
  layers.transport_us = roundtrip - sojourn - layers.encode_us -
                        layers.decode_us - layers.response_codec_us;
  layers.sojourn_p50 = PercentileUs(totals, "engine.sojourn", 0.5);
  layers.sojourn_p99 = PercentileUs(totals, "engine.sojourn", 0.99);
  layers.score_us = score_us;
  layers.queue_wait_us = sojourn - score_us;
  layers.engine_self_us = MeanSelfUs(totals, "engine.score", n);
  const double assign_per_req = MeanSelfUs(totals, "core.assign", n);
  layers.assign_us_per_query =
      miss_queries > 0 ? MeanSelfUs(totals, "core.assign",
                                    static_cast<double>(miss_queries))
                       : 0.0;
  layers.bin_us = MeanSelfUs(totals, "core.bin", n);
  layers.predict_us = MeanSelfUs(totals, "ml.predict", n);
  // The generator's own lateness is read from the untraced phase: in the
  // traced phase each sender also runs the in-process mirrors, and the
  // extra lag that causes is tracing overhead, not a layer.
  const LatencySummary lag = SummarizeLatency(untraced.lag_us);
  layers.lag_p99_us = lag.tail_us;
  const double lag_mean = MeanOf(untraced.lag_us);
  const LatencySummary e2e_untraced = SummarizeLatency(untraced.latency_us);
  layers.open_p50_us = e2e_untraced.p50_us;
  layers.open_p90_us = e2e_untraced.p90_us;
  layers.open_p99_us = e2e_untraced.tail_us;
  const LatencySummary e2e_traced = SummarizeLatency(traced.latency_us);
  const double self_sum = lag_mean + layers.encode_us + layers.decode_us +
                          layers.response_codec_us + layers.transport_us +
                          layers.queue_wait_us + layers.engine_self_us +
                          assign_per_req + layers.bin_us + layers.predict_us;
  layers.wire_unattributed_us = e2e_untraced.mean_us - self_sum;
  layers.overhead_frac =
      (e2e_traced.mean_us - e2e_untraced.mean_us) / e2e_untraced.mean_us;
  Report("  per request (means): lag %.1f + encode %.2f + decode %.2f + "
         "response codec %.2f + transport %.1f + queue wait %.1f + engine "
         "self %.2f + assign %.2f + bin %.2f + predict %.2f = %.1f us vs "
         "untraced end-to-end %.1f us -> unattributed %.1f us",
         lag_mean, layers.encode_us, layers.decode_us,
         layers.response_codec_us, layers.transport_us, layers.queue_wait_us,
         layers.engine_self_us, assign_per_req, layers.bin_us,
         layers.predict_us, self_sum, e2e_untraced.mean_us,
         layers.wire_unattributed_us);
  Report("  tracing overhead: traced end-to-end mean %.1f us vs untraced "
         "%.1f us (%+.1f%%)",
         e2e_traced.mean_us, e2e_untraced.mean_us,
         100.0 * layers.overhead_frac);
  Report("  replica: %zu member queries missed the template-id cache (%.1f%% "
         "of %llu), %zu replica mismatches",
         miss_queries, 100.0 * static_cast<double>(miss_queries) / (n * kBatchSize),
         static_cast<unsigned long long>(open_count * kBatchSize),
         replica_mismatches);
  node->server->Terminate();
  if (Status st = GateOrFail(&out, *node, stream, Phase::kOpen,
                             untraced.served, untraced.refused,
                             untraced.failed, "untraced");
      !st.ok()) {
    return fail(st);
  }
  if (Status st = GateOrFail(&out, *node, stream, Phase::kOpen, traced.served,
                             traced.refused, traced.failed, "traced");
      !st.ok()) {
    return fail(st);
  }
  if (replica_mismatches > 0) {
    out.correct = false;
    out.failed += replica_mismatches;
  }
  if (Status st = spans.WriteJsonLines(options.workdir + "/spans.jsonl");
      !st.ok()) {
    Report("warning: %s", st.ToString().c_str());
  }
  layers.AppendTo(&out);
  return out;
}

// ---------------------------------------------------------------------------
// retrain

namespace {

struct Retrain {
  int exit_code = -1;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string output;
};

Result<Retrain> RunWmpctlTrain(const RunOptions& options, const Node& node,
                               const std::string& log_path,
                               const std::string& fresh_path, int index) {
  const std::string out_path =
      options.workdir + "/train" + std::to_string(index) + ".out";
  const int64_t t0 = NowNs();
  WMP_ASSIGN_OR_RETURN(
      auto child,
      ChildProcess::Spawn({options.wmpctl, "train", "--log=" + log_path,
                           "--model=" + fresh_path, "--publish",
                           "--connect=" + node.address},
                          out_path));
  // The child's own high-water RSS, read while it runs: rusage's ru_maxrss
  // would report this (much larger) process, whose peak the spawned child
  // inherits at exec.
  Retrain r;
  while (child->Running()) {
    r.peak_rss_mb = std::max(r.peak_rss_mb, child->PeakRssMb());
    ::usleep(2000);
  }
  r.exit_code = child->Wait();
  r.wall_s = Seconds(NowNs() - t0);
  r.output = ReadWholeFile(out_path);
  return r;
}

}  // namespace

RunOutcome RunRetrain(const RunOptions& options) {
  RunOutcome out;
  const RequestStream stream(
      StreamKind::kRecurring, options.seed,
      workloads::PaperQueryCount(workloads::Benchmark::kTpcds));
  const auto fail = [&](const Status& st) {
    Report("error: %s", st.ToString().c_str());
    out.correct = false;
    out.failed = std::max<uint64_t>(out.failed, 1);
    out.attempted = std::max<uint64_t>(out.attempted, 1);
    return out;
  };
  std::vector<double> setup_times, setup_steal;
  auto node = SetUpRepeated(options, Kind::kRetrain, stream,
                            options.trace ? 1 : kSetupRepeats, &setup_times,
                            &setup_steal);
  if (!node.ok()) return fail(node.status());
  const auto fresh_path = [&](int i) {
    return options.workdir + "/fresh" + std::to_string(i) + ".wmp";
  };
  const double log_queries = static_cast<double>(kRetrainLogQueries);

  if (!options.trace) {
    // Rounds over the logs until kRetrainRounds are done and `--seconds`
    // have passed.
    std::vector<std::vector<double>> walls(kRetrainLogs);
    double peak_rss = 0.0;
    const int64_t start = NowNs();
    for (int round = 0; round < kRetrainRounds ||
                        Seconds(NowNs() - start) < options.seconds;
         ++round) {
      for (int l = 0; l < kRetrainLogs; ++l) {
        const HostCpu cpu = ReadHostCpu();
        auto r = RunWmpctlTrain(options, *node,
                                node->log_paths[static_cast<size_t>(l)],
                                fresh_path(l), l);
        if (!r.ok()) return fail(r.status());
        ++out.attempted;
        const bool verified =
            r->exit_code == 0 &&
            r->output.find("0 failed, 0 mismatches") != std::string::npos;
        if (!verified) {
          ++out.failed;
          out.correct = false;
          Report("  retrain of log %d FAILED (exit %d):\n%s", l, r->exit_code,
                 r->output.c_str());
          continue;
        }
        walls[static_cast<size_t>(l)].push_back(r->wall_s);
        peak_rss = std::max(peak_rss, r->peak_rss_mb);
        Report("  round %d, log %d: %.3f s log -> new model serving (%.0f "
               "queries/s), peak RSS %.1f MB, host steal %.1f%%",
               round, l, r->wall_s, log_queries / r->wall_s, r->peak_rss_mb,
               100.0 * StealShare(cpu, ReadHostCpu()));
      }
    }
    // Admission traffic on the freshly published model, once the rollout's
    // cold caches have been refilled by one pass over the pool.
    const Drive rewarm =
        DriveClosed(node->address, node->data.records, stream, Phase::kWarmup,
                    0, kConnections, kRequestWorkloads, kRecurringPoolSize,
                    0.0);
    Account(&out, rewarm.served.size(), rewarm.refused, rewarm.failed, 0);
    const OpenLoop post =
        DriveOpen(node->address, node->data.records, stream, Phase::kOpen, 0,
                  kOpenLoopRequests, kSenders, kOpenLoopRate);
    ReportLatency("post-publish open", post, kOpenLoopRate);
    node->server->Terminate();
    auto mismatches = CountMismatches(fresh_path(kRetrainLogs - 1),
                                      node->data.records,
                                      stream, Phase::kOpen, post.served);
    if (!mismatches.ok()) return fail(mismatches.status());
    Account(&out, post.served.size(), post.refused, post.failed, *mismatches);
    Report("    bitwise gate (post-publish): %zu served, %llu mismatches vs "
           "in-process BatchScorer on the fresh artifact",
           post.served.size(), static_cast<unsigned long long>(*mismatches));
    const double success =
        1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    // Each log's fastest round: on a shared host, noise only ever adds
    // time. All logs together: they differ in how fast k-means converges,
    // so the aggregate is steadier than any one log.
    double wall_s = 0.0;
    for (const auto& w : walls) {
      if (w.empty()) return fail(Status::Internal("a log never retrained"));
      wall_s += *std::min_element(w.begin(), w.end());
    }
    out.Add("throughput_qps", kRetrainLogs * log_queries / wall_s,
            "queries/s");
    out.Add("success_frac", success, "ratio");
    out.Add("rmse_mb",
            RmseMb(node->data.records, stream, Phase::kOpen, post.served), "MB");
    out.Add("setup_s", Median(setup_times), "s");
    out.Add("peak_rss_mb", peak_rss, "MB");
    return out;
  }

  // ---- traced run ----
  Layers layers;
  // The untraced end-to-end reference: one real rollout per log.
  double e2e_s = 0.0;
  for (int l = 0; l < kRetrainLogs; ++l) {
    auto r = RunWmpctlTrain(options, *node,
                            node->log_paths[static_cast<size_t>(l)],
                            fresh_path(l), l);
    if (!r.ok()) return fail(r.status());
    ++out.attempted;
    if (r->exit_code != 0) {
      ++out.failed;
      out.correct = false;
    }
    e2e_s += r->wall_s;
  }
  Report("  untraced retrains: %.3f s over %d logs", e2e_s, kRetrainLogs);
  // Serving traffic is not part of this workload's traced replay; free the
  // generated corpus before ingesting the logs again.
  node->data = workloads::Dataset();

  // The same steps in process, under spans, log by log.
  SpanLog spans;
  net::WireClient client(node->address);
  core::LearnedWmpTrainStats train_split;
  for (int l = 0; l < kRetrainLogs; ++l) {
    const uint64_t req = static_cast<uint64_t>(l);
    const uint32_t root = spans.Begin("retrain", SpanLog::kNoParent, req);
    uint32_t id = spans.Begin("workloads.ingest", root, req);
    auto records =
        workloads::LoadQueryLog(node->log_paths[static_cast<size_t>(l)]);
    spans.End(id);
    if (!records.ok()) return fail(records.status());
    // The three steps ParseQueryLog runs per record, each timed on its own.
    std::vector<std::string> explains;
    explains.reserve(records->size());
    for (const auto& r : *records) {
      explains.push_back(wmp::plan::Explain(*r.plan));
    }
    size_t parse_failures = 0;
    id = spans.Begin("sql.parse", root, req);
    for (const auto& r : *records) {
      if (!wmp::sql::Parse(r.sql_text).ok()) ++parse_failures;
    }
    spans.End(id);
    id = spans.Begin("plan.explain_parse", root, req);
    for (const auto& e : explains) {
      if (!wmp::plan::ParseExplain(e).ok()) ++parse_failures;
    }
    spans.End(id);
    id = spans.Begin("plan.features", root, req);
    double feature_sum = 0.0;
    for (const auto& r : *records) {
      feature_sum += wmp::plan::ExtractPlanFeatures(*r.plan)[0];
    }
    spans.End(id);
    const auto all = core::AllIndices(records->size());
    std::vector<int> ks;
    for (int k = 10; k <= 100; k += 10) ks.push_back(k);
    id = spans.Begin("core.choose_k", root, req);
    auto chosen = core::ChooseNumTemplates(*records, all, ks, 42);
    spans.End(id);
    if (!chosen.ok()) return fail(chosen.status());
    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = *chosen;
    lopt.batch_size = kBatchSize;
    lopt.seed = 42;
    id = spans.Begin("core.train", root, req);
    auto model = core::LearnedWmpModel::Train(*records, all, lopt);
    spans.End(id);
    if (!model.ok()) return fail(model.status());
    train_split.template_ms += model->train_stats().template_ms;
    train_split.histogram_ms += model->train_stats().histogram_ms;
    train_split.regressor_ms += model->train_stats().regressor_ms;
    id = spans.Begin("net.publish", root, req);
    auto epoch = client.Publish("default", *model);
    spans.End(id);
    if (!epoch.ok()) return fail(epoch.status());
    id = spans.Begin("net.verify", root, req);
    const auto batches =
        engine::MakeConsecutiveBatches(records->size(), kBatchSize);
    engine::BatchScorer reference(&*model);
    auto want = reference.ScoreWorkloads(*records, batches);
    auto got = client.ScoreWorkloads("rollout-verify", *records, batches);
    spans.End(id);
    spans.End(root);
    if (!want.ok()) return fail(want.status());
    if (!got.ok()) return fail(got.status());
    uint64_t mismatches = 0;
    for (size_t w = 0; w < batches.size(); ++w) {
      if (!(*got)[w].ok() || *(*got)[w] != want->predictions[w]) ++mismatches;
    }
    out.attempted += batches.size();
    out.failed += mismatches + parse_failures;
    if (mismatches + parse_failures > 0) out.correct = false;
    Report("  traced replay of log %d: k=%d, %zu workloads verified remotely, "
           "%llu mismatches, %zu parse failures (feature checksum %.3f)",
           l, *chosen, batches.size(),
           static_cast<unsigned long long>(mismatches), parse_failures,
           feature_sum);
  }
  node->server->Terminate();

  const auto totals = spans.Summarize();
  // Seconds summed over the logs, like the end-to-end reference.
  const auto sec = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1e9;
  };
  layers.parse_s = sec("sql.parse");
  layers.explain_parse_s = sec("plan.explain_parse");
  layers.features_s = sec("plan.features");
  // Ingest runs those three per record; its own self time is the rest.
  layers.ingest_s = sec("workloads.ingest") - layers.parse_s -
                    layers.explain_parse_s - layers.features_s;
  layers.choose_k_s = sec("core.choose_k");
  layers.train_s = sec("core.train");
  layers.train_templates_s = train_split.template_ms / 1e3;
  layers.train_histograms_s = train_split.histogram_ms / 1e3;
  layers.train_regressor_s = train_split.regressor_ms / 1e3;
  layers.publish_s = sec("net.publish");
  layers.verify_s = sec("net.verify");
  const double self_sum = layers.ingest_s + layers.parse_s +
                          layers.explain_parse_s + layers.features_s +
                          layers.choose_k_s + layers.train_s +
                          layers.publish_s + layers.verify_s;
  layers.retrain_unattributed_s = e2e_s - self_sum;
  const double traced_s = sec("retrain");
  layers.overhead_frac = (traced_s - e2e_s) / e2e_s;
  Report("  retrain self times: ingest %.3f + sql parse %.3f + explain parse "
         "%.3f + plan features %.3f + choose k %.3f + train %.3f (program-"
         "reported: templates %.3f / histograms %.3f / regressor %.3f) + "
         "publish %.3f + verify %.3f = %.3f s vs untraced %.3f s -> "
         "unattributed %.3f s",
         layers.ingest_s, layers.parse_s, layers.explain_parse_s,
         layers.features_s, layers.choose_k_s, layers.train_s,
         layers.train_templates_s, layers.train_histograms_s,
         layers.train_regressor_s, layers.publish_s, layers.verify_s, self_sum,
         e2e_s, layers.retrain_unattributed_s);
  Report("  tracing overhead: traced replay %.3f s vs untraced %.3f s "
         "(%+.1f%%)",
         traced_s, e2e_s, 100.0 * layers.overhead_frac);
  if (Status st = spans.WriteJsonLines(options.workdir + "/spans.jsonl");
      !st.ok()) {
    Report("warning: %s", st.ToString().c_str());
  }
  layers.AppendTo(&out);
  return out;
}

}  // namespace perfbench
