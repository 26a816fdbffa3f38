// gatw_bench: the end-to-end GATW serving benchmark.
//
//   gatw_bench --workload paper_read|live_rw|mmap_cache --seed N
//              --seconds S
//
// gatw_bench_traced takes the same flags and reports per-layer metrics.
//
// The client generates every input itself: the NY city at full Table-IV
// size, a fixed pool of Table-V queries sent in an order drawn from
// --seed, and a check-in stream drawn from --seed. It computes reference
// answers in process, then starts the server role of this same binary
// (server.cc) as a child process, hands it the dataset file and drives
// it over loopback GATW with at most three connections.
// Every answer is checked. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; gatw_bench's metrics
// are the end-to-end ones, gatw_bench_traced's the per-layer ones
// derived from the spans both processes recorded (README.md).

#include <cpuid.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "gat/core/match.h"
#include "gat/core/order_match.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/model/serialization.h"
#include "gat/net/client.h"
#include "gat/net/codec.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_index.h"
#include "gat/storage/async_io.h"
#include "gat/util/rng.h"
#include "request_keys.h"
#include "spans.h"

extern char** environ;

namespace gatw {
namespace {

// ------------------------------------------------------------ settings

constexpr size_t kPoolQueries = 512;     // distinct queries per run
constexpr uint64_t kPoolSeed = 20130408;  // the query pool's fixed seed
constexpr size_t kStrata = 16;           // cost bands of the send order
static_assert(kPoolQueries % (2 * kStrata) == 0);
constexpr double kWarmupSeconds = 2.0;
constexpr int kSetups = 3;               // server starts timed per run
constexpr size_t kBatchCheckIns = 8;     // check-ins per ingest batch
constexpr uint64_t kIngestUserBase = 1'000'000'000;
// live_rw: the writer's open-loop rate, and a merge cadence that puts
// kLiveMerges merges wholly inside every timed window. The stream
// replays NY users (MakeInputs), about 21 check-ins each, so at 50
// batches of 8 a 20 s window's merge period carries about 127 users,
// 0.26% of the base's trajectories (README.md, "live_rw's writes").
constexpr double kLiveBatchesPerSecond = 50.0;
constexpr int kLiveMerges = 3;
constexpr size_t kProbeBatches = 512;    // idle-server ingest probe
constexpr size_t kVerifyQueries = 32;    // live_rw end-state check
constexpr int kDeadlineSeconds = 170;

enum class Workload { kPaperRead, kLiveRw, kMmapCache };

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "paper_read") *out = Workload::kPaperRead;
  else if (name == "live_rw") *out = Workload::kLiveRw;
  else if (name == "mmap_cache") *out = Workload::kMmapCache;
  else return false;
  return true;
}

constexpr gat::QueryKind kKinds[2] = {gat::QueryKind::kAtsq,
                                      gat::QueryKind::kOatsq};

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

void SleepUntilNs(int64_t due_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due_ns)));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Progress on stderr: which phase the run reached, and when.
void Phase(const char* name) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "gatw_bench: %6.2f s  %s\n",
               static_cast<double>(NowNs() - start) * 1e-9, name);
}

// -------------------------------------------------------------- stamp

std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();
  std::string clean;
  for (const char c : model) {
    if (c != '"' && c != '\\') clean += c;
  }
  const size_t first = clean.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : clean.substr(first);
}

std::string Governor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  if (!std::getline(in, governor) || governor.empty()) return "unavailable";
  return governor;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// ------------------------------------------------------------- inputs

struct Inputs {
  gat::Dataset city;
  std::vector<gat::Query> pool;
  // requests[k][q]: pool query q as a one-query read of kind kKinds[k].
  std::vector<gat::ServeRequest> requests[2];
  std::vector<uint64_t> fingerprints[2];
  std::vector<gat::ResultList> reference[2];  // monolithic GatSearcher
  // Wall time of the reference searches: the same fixed work in every
  // run, so comparing it across runs shows how fast the host was.
  double reference_s = 0.0;
  std::vector<std::vector<gat::CheckIn>> batches;
};

/// The delta side of a check-in stream: one trajectory per user in
/// first-appearance order, points as LiveIndex stores them.
std::vector<gat::Trajectory> Segment(const std::vector<gat::CheckIn>& log,
                                     size_t from, size_t to) {
  std::vector<gat::Trajectory> out;
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = from; i < to; ++i) {
    gat::TrajectoryPoint point;
    point.location = log[i].location;
    point.activities = log[i].activities;
    std::sort(point.activities.begin(), point.activities.end());
    point.activities.erase(
        std::unique(point.activities.begin(), point.activities.end()),
        point.activities.end());
    const auto [it, fresh] = index.try_emplace(log[i].user, out.size());
    if (fresh) {
      out.emplace_back(std::vector<gat::TrajectoryPoint>{std::move(point)});
    } else {
      out[it->second].mutable_points().push_back(std::move(point));
    }
  }
  return out;
}

/// Computes `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, unsigned threads, const Fn& fn) {
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

Inputs MakeInputs(uint64_t seed, size_t batches) {
  Inputs in;
  // The paper runs every experiment on one fixed dataset and one random
  // query workload. So does this benchmark: the city is the NY profile
  // with its own seed and the query pool comes from a fixed seed, which
  // keeps the heavy-tailed mix of query costs the same in every run.
  // --seed draws what varies between runs: the order in which the pool
  // is sent (so which queries run concurrently) and the check-in stream.
  in.city = gat::GenerateCity(gat::CityProfile::NewYork(1.0));

  gat::QueryWorkloadParams params;  // Table V: |Q|=4, |q.Phi|=3, 10 km
  params.num_queries = kPoolQueries;
  params.seed = kPoolSeed;
  const std::vector<gat::Query> generated =
      gat::QueryGenerator(in.city, params).Workload();
  if (generated.size() != kPoolQueries) {
    std::fprintf(stderr, "query generator gave %zu queries, want %zu\n",
                 generated.size(), kPoolQueries);
    std::exit(1);
  }

  std::vector<gat::ResultList> answers[2];
  std::vector<gat::SearchStats> stats[2];
  for (int k = 0; k < 2; ++k) {
    answers[k].resize(generated.size());
    stats[k].resize(generated.size());
  }
  const gat::GatIndex index(in.city);
  const gat::GatSearcher reference(in.city, index);
  const int64_t reference_start = NowNs();
  ParallelFor(2 * generated.size(), 4, [&](size_t i) {
    const size_t k = i % 2;
    const size_t q = i / 2;
    answers[k][q] =
        reference.Search(generated[q], kTopK, kKinds[k], &stats[k][q]);
  });
  in.reference_s = static_cast<double>(NowNs() - reference_start) * 1e-9;

  // The send order is stratified by cost, so a window that ends part of
  // the way through a pass still measures the pool's mix of cheap and
  // costly queries: the queries are ranked by the candidates their two
  // reference searches retrieved and cut into kStrata bands of equal
  // size, the seed shuffles each band, and the order deals one query of
  // every band in turn (NthRead gives each connection every band once in
  // kStrata reads).
  std::vector<size_t> ranked(generated.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  auto cost = [&](size_t q) {
    return stats[0][q].candidates_retrieved + stats[1][q].candidates_retrieved;
  };
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](size_t a, size_t b) { return cost(a) < cost(b); });
  const size_t band = generated.size() / kStrata;
  gat::Rng rng(seed * 31 + 7);
  for (size_t s = 0; s < kStrata; ++s) {
    for (size_t i = band; i > 1; --i) {
      std::swap(ranked[s * band + i - 1],
                ranked[s * band + rng.NextU32(static_cast<uint32_t>(i))]);
    }
  }
  for (size_t p = 0; p < generated.size(); ++p) {
    // Position p is read by connection p % 2 (NthRead); pair p / 2 takes
    // band (p / 2) % kStrata.
    const size_t pair = p / 2;
    const size_t member = 2 * (pair / kStrata) + p % 2;
    const size_t q = ranked[(pair % kStrata) * band + member];
    in.pool.push_back(generated[q]);
    for (int k = 0; k < 2; ++k) in.reference[k].push_back(answers[k][q]);
  }

  for (int k = 0; k < 2; ++k) {
    for (const gat::Query& query : in.pool) {
      gat::ServeRequest request;
      request.queries = {query};
      request.k = kTopK;
      request.kind = kKinds[k];
      in.requests[k].push_back(std::move(request));
      in.fingerprints[k].push_back(ReadFingerprint(query, kKinds[k]));
    }
  }

  // The check-in stream replays the city's own users, so the delta's
  // trajectories have the city's check-ins-per-user distribution: slot j
  // of every batch is one user, who sends the points of a random city
  // trajectory in order under a fresh id and is replaced when done.
  struct Replay {
    uint64_t user = 0;
    const gat::Trajectory* from = nullptr;
    size_t next = 0;
  };
  const auto& trajectories = in.city.trajectories();
  std::vector<Replay> slots(kBatchCheckIns);
  uint64_t next_user = kIngestUserBase;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<gat::CheckIn> batch;
    for (Replay& slot : slots) {
      while (slot.from == nullptr || slot.next == slot.from->size()) {
        slot = {next_user++,
                &trajectories[rng.NextU32(
                    static_cast<uint32_t>(trajectories.size()))],
                0};
      }
      const gat::TrajectoryPoint& p = slot.from->points()[slot.next++];
      batch.push_back({slot.user, p.location, p.activities});
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

// ------------------------------------------------------ server process

pid_t g_child = -1;  // for the deadline handler

void OnDeadline(int) {
  if (g_child > 0) {
    kill(g_child, SIGKILL);
    waitpid(g_child, nullptr, 0);
  }
  _exit(3);
}

/// One server-role child: stdin carries commands, stdout replies.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (rc != 0) {
      pid_ = -1;
      close(to_child[1]);
      close(from_child[0]);
      return false;
    }
    g_child = pid_;
    to_child_ = to_child[1];
    from_child_ = fdopen(from_child[0], "r");
    return from_child_ != nullptr;
  }

  bool ReadLine(std::string* line) {
    char buf[4096];
    if (from_child_ == nullptr || fgets(buf, sizeof(buf), from_child_) == nullptr) {
      return false;
    }
    line->assign(buf, std::strcspn(buf, "\n"));
    return true;
  }

  /// Sends `command` and returns the reply line, which must start with
  /// `prefix`.
  bool Command(const std::string& command, const std::string& prefix,
               std::string* reply) {
    const std::string line = command + "\n";
    if (to_child_ < 0 ||
        write(to_child_, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size())) {
      return false;
    }
    return ReadLine(reply) && reply->rfind(prefix, 0) == 0;
  }

  /// Closes the command channel, collects every remaining output line
  /// and waits for the exit. True when the server exited with 0.
  bool Finish(std::vector<std::string>* lines) {
    if (pid_ < 0) return false;
    close(to_child_);
    to_child_ = -1;
    std::string line;
    while (ReadLine(&line)) lines->push_back(line);
    int status = 0;
    const pid_t waited = waitpid(pid_, &status, 0);
    pid_ = -1;
    g_child = -1;
    fclose(from_child_);
    from_child_ = nullptr;
    return waited > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void Kill() {
    if (to_child_ >= 0) close(to_child_);
    to_child_ = -1;
    if (pid_ > 0) {
      // EOF on stdin asks the server to stop; give it a moment.
      for (int i = 0; i < 500; ++i) {
        if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        usleep(10'000);
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
      }
      g_child = -1;
    }
    if (from_child_ != nullptr) fclose(from_child_);
    from_child_ = nullptr;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  FILE* from_child_ = nullptr;
};

std::map<std::string, double> ParseFields(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

// ------------------------------------------------------------ checking

bool SortedResults(const gat::ResultList& got) {
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i].distance < got[i - 1].distance ||
        (got[i].distance == got[i - 1].distance &&
         got[i].trajectory <= got[i - 1].trajectory)) {
      return false;
    }
  }
  return true;
}

/// A read whose dataset never changed: bit-identical to the reference.
bool ExactAnswer(const gat::ServeResult& result,
                 const gat::ResultList& reference) {
  return result.status == gat::ServeStatus::kOk &&
         result.batch.results.size() == 1 &&
         result.batch.statuses.size() == 1 &&
         result.batch.statuses[0] == gat::QueryStatus::kOk &&
         result.batch.results[0] == reference;
}

/// A read over a growing dataset (live_rw). Trajectories of the
/// original city never change, so the answer restricted to them must be
/// a prefix of the original reference, and when it is a strict prefix
/// the check-ins that displaced the rest must fill the list and rank
/// before the first original answer left out. The full answers are
/// checked at the quiesced end state.
bool LiveAnswer(const gat::ServeResult& result,
                const gat::ResultList& reference, size_t original_size) {
  if (result.status != gat::ServeStatus::kOk ||
      result.batch.results.size() != 1 ||
      result.batch.statuses.size() != 1 ||
      result.batch.statuses[0] != gat::QueryStatus::kOk) {
    return false;
  }
  const gat::ResultList& got = result.batch.results[0];
  if (got.size() > kTopK || got.size() < reference.size() ||
      !SortedResults(got)) {
    return false;
  }
  size_t matched = 0;
  for (const gat::SearchResult& r : got) {
    if (r.trajectory >= original_size) continue;
    if (matched >= reference.size() || !(r == reference[matched])) {
      return false;
    }
    ++matched;
  }
  if (matched == reference.size()) return true;
  const gat::SearchResult& next = reference[matched];
  const gat::SearchResult& last = got.back();
  return got.size() == kTopK &&
         (last.distance < next.distance ||
          (last.distance == next.distance &&
           last.trajectory < next.trajectory));
}

// ---------------------------------------------------------------- load

/// What one connection thread observed.
struct Tally {
  std::vector<double> latency_ms[2];
  std::vector<double> ingest_ms;
  uint64_t reads = 0;
  uint64_t ingests = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double late_ms = 0.0;
  uint64_t late_samples = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  double results_returned = 0.0;
  std::vector<uint64_t> read_keys;
  std::vector<uint64_t> ingest_keys;
  int64_t last_done_ns = 0;

  void Merge(const Tally& o) {
    for (int k = 0; k < 2; ++k) {
      latency_ms[k].insert(latency_ms[k].end(), o.latency_ms[k].begin(),
                           o.latency_ms[k].end());
    }
    ingest_ms.insert(ingest_ms.end(), o.ingest_ms.begin(), o.ingest_ms.end());
    reads += o.reads;
    ingests += o.ingests;
    failed += o.failed;
    wrong += o.wrong;
    late_ms += o.late_ms;
    late_samples += o.late_samples;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    results_returned += o.results_returned;
    read_keys.insert(read_keys.end(), o.read_keys.begin(), o.read_keys.end());
    ingest_keys.insert(ingest_keys.end(), o.ingest_keys.begin(),
                       o.ingest_keys.end());
    last_done_ns = std::max(last_done_ns, o.last_done_ns);
  }
};

/// The client's side of one server: its port, its request keys, and
/// what the answers are checked against.
struct Session {
  const Inputs* in = nullptr;
  uint16_t port = 0;
  RequestKeys keys;
  bool live_answers = false;  // LiveAnswer instead of ExactAnswer
  bool traced = false;        // record byte counts
};

class Connection {
 public:
  Connection(Session& session, Tally& tally)
      : session_(session), tally_(tally) {
    client_.Connect("127.0.0.1", session_.port);
  }

  /// One read of pool query `q` as kind `k`.
  void Read(size_t q, int k) {
    const gat::ServeRequest& request = session_.in->requests[k][q];
    const uint64_t key = session_.keys.NextRead(session_.in->fingerprints[k][q]);
    gat::ServeResult result;
    const int64_t sent = NowNs();
    bool ok = false;
    {
      Scope scope(Layer::kNet, Op::kCall, key);
      ok = EnsureConnected() && client_.Call(request, &result);
    }
    const int64_t done = NowNs();
    ++tally_.reads;
    tally_.last_done_ns = done;
    if (!ok) {
      ++tally_.failed;
      return;
    }
    const gat::ResultList& reference = session_.in->reference[k][q];
    const bool right =
        session_.live_answers
            ? LiveAnswer(result, reference, session_.in->city.size())
            : ExactAnswer(result, reference);
    if (!right) {
      ++tally_.failed;
      ++tally_.wrong;
      return;
    }
    tally_.latency_ms[k].push_back(Ms(done - sent));
    tally_.read_keys.push_back(key);
    tally_.results_returned += result.batch.results[0].size();
    if (session_.traced) {
      tally_.request_bytes += gat::wire::EncodeRequestFrame(request).size();
      tally_.response_bytes += gat::wire::EncodeResultFrame(result).size();
    }
  }

  /// One ingest batch; the ack must carry the cumulative watermark.
  /// `due_ns` (open loop) is when it should have been sent; latency then
  /// counts from there. Returns true when the batch was applied.
  bool Ingest(const std::vector<gat::CheckIn>& batch, uint64_t* watermark,
              int64_t due_ns = 0) {
    gat::IngestRequest request;
    request.checkins = batch;
    const uint64_t key = session_.keys.NextIngest();
    gat::IngestResult result;
    const int64_t sent = NowNs();
    bool ok = false;
    {
      Scope scope(Layer::kNet, Op::kCallIngest, key);
      ok = EnsureConnected() && client_.CallIngest(request, &result);
    }
    const int64_t done = NowNs();
    ++tally_.ingests;
    if (due_ns != 0) {
      tally_.late_ms += Ms(std::max<int64_t>(0, sent - due_ns));
      ++tally_.late_samples;
    }
    if (!ok || result.status != gat::IngestStatus::kOk ||
        result.accepted != batch.size() ||
        result.watermark != *watermark + batch.size()) {
      ++tally_.failed;
      if (ok) ++tally_.wrong;
      return false;
    }
    *watermark = result.watermark;
    tally_.ingest_ms.push_back(Ms(done - (due_ns != 0 ? due_ns : sent)));
    tally_.ingest_keys.push_back(key);
    return true;
  }

 private:
  bool EnsureConnected() {
    return client_.connected() || client_.Connect("127.0.0.1", session_.port);
  }

  Session& session_;
  Tally& tally_;
  gat::wire::Client client_;
};

/// The n-th read of connection c: connection c walks the pool entries
/// congruent to c mod 2 (so no pool entry is ever in flight on both
/// connections), meeting every cost band once in kStrata reads. It
/// alternates ATSQ and OATSQ, shifting the pairing every kStrata reads
/// so each band is asked both ways, and flipping it every pass so each
/// query is asked both ways.
void NthRead(size_t n, size_t c, size_t* q, int* k) {
  const size_t half = kPoolQueries / 2;
  *q = 2 * (n % half) + c;
  *k = static_cast<int>((n + n / kStrata + n / half) & 1);
}

/// The ingest side of live_rw: what the writer got acknowledged.
struct Stream {
  uint64_t watermark = 0;
  size_t batches_acked = 0;
};

/// Two closed-loop read connections, each sending its next read as soon
/// as the previous answer arrived, until `end_ns` (or `count` reads
/// each). With `stream` (live_rw) a third connection sends the check-in
/// batches open loop at kLiveBatchesPerSecond from `start_ns`, each
/// timed from when it was due.
Tally Drive(Session& session, int64_t start_ns, int64_t end_ns, size_t count,
            Stream* stream) {
  Tally tallies[3];
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      Connection connection(session, tallies[c]);
      for (size_t n = 0; n < count && NowNs() < end_ns; ++n) {
        size_t q = 0;
        int k = 0;
        NthRead(n, c, &q, &k);
        connection.Read(q, k);
      }
    });
  }
  if (stream != nullptr) {
    threads.emplace_back([&] {
      Connection connection(session, tallies[2]);
      const double period_ns = 1e9 / kLiveBatchesPerSecond;
      for (size_t j = 0; j < session.in->batches.size(); ++j) {
        const int64_t due = start_ns + static_cast<int64_t>(j * period_ns);
        if (due >= end_ns) break;
        SleepUntilNs(due);
        if (!connection.Ingest(session.in->batches[j], &stream->watermark,
                               due)) {
          break;
        }
        stream->batches_acked = j + 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tallies[0].Merge(tallies[1]);
  tallies[0].Merge(tallies[2]);
  return tallies[0];
}

// ------------------------------------------------------------- tracing

std::vector<Span> ParseSpans(const std::vector<std::string>& lines) {
  std::vector<Span> spans;
  for (const std::string& line : lines) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag != "SPAN") continue;
    Span s;
    int layer = 0;
    int op = 0;
    in >> s.request >> s.parent >> layer >> op >> s.start_ns >> s.end_ns >>
        s.allocs >> s.alloc_bytes >> s.a >> s.b >>
        s.stats.candidates_retrieved >> s.stats.tas_pruned >>
        s.stats.activity_rejected >> s.stats.mib_rejected >>
        s.stats.distance_computations >> s.stats.nodes_popped >>
        s.stats.rounds >> s.stats.disk_reads;
    s.layer = static_cast<Layer>(layer);
    s.op = static_cast<Op>(op);
    spans.push_back(s);
  }
  return spans;
}

/// How much of `span` the union of `spans` covers.
int64_t CoveredNs(const Span& span, const std::vector<const Span*>& spans) {
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span* c : spans) {
    const int64_t lo = std::max(c->start_ns, span.start_ns);
    const int64_t hi = std::min(c->end_ns, span.end_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0;
  int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : cover) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

/// A span's duration minus the part of it its children cover.
double SelfNs(const Span& span, const std::vector<const Span*>& children) {
  return static_cast<double>(span.end_ns - span.start_ns -
                             CoveredNs(span, children));
}

/// Per-layer numbers of the traced run, one request at a time: the
/// client's round-trip span is the root, the server's spans of the same
/// key hang below it.
struct LayerTrace {
  bool seen[kNumSpanLayers] = {};
  double self_ms[kNumSpanLayers] = {};   // mean per read
  double allocs[kNumSpanLayers] = {};    // per timed request
  double alloc_bytes[kNumSpanLayers] = {};
  double engine_queue_ms = 0.0;  // task wait + batch wall - query wall
  double delta_trajectories = 0.0;
  double shard_max_over_mean = 0.0;
  double search_ms = 0.0;
  gat::SearchStats search;  // summed, divided at emission
  double live_ingest_us = 0.0;
  // Median over reads of the share of the round trip the union of the
  // read's server spans covers: what the hooks measured, as opposed to
  // net.self_ms, which is the remainder.
  double self_coverage = 0.0;
  size_t reads = 0;
};

/// `timed` holds the timed window's requests; `probe_ingests` are the
/// keys of ingest batches sent after it, which only feed live.ingest_us.
/// `loose` is the server's unattributed allocations over the window.
LayerTrace AnalyzeTrace(const std::vector<Span>& server,
                        const std::vector<Span>& client, const Tally& timed,
                        const std::vector<uint64_t>& probe_ingests,
                        const Unattributed& loose) {
  LayerTrace out;
  std::vector<std::vector<const Span*>> children(server.size());
  std::unordered_map<uint64_t, std::vector<const Span*>> roots;
  for (size_t i = 0; i < server.size(); ++i) {
    const Span& s = server[i];
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < server.size()) {
      children[s.parent].push_back(&s);
    } else if (s.request != 0) {
      roots[s.request].push_back(&s);
    }
  }
  std::unordered_map<uint64_t, const Span*> calls;
  for (const Span& s : client) calls[s.request] = &s;

  // Walks one request's server spans below its client span.
  auto visit = [&](const Span& call, auto&& on_span) {
    const std::vector<const Span*>& top = roots[call.request];
    on_span(call, top);
    std::vector<const Span*> stack(top.begin(), top.end());
    while (!stack.empty()) {
      const Span* s = stack.back();
      stack.pop_back();
      const std::vector<const Span*>& kids = children[s - server.data()];
      on_span(*s, kids);
      stack.insert(stack.end(), kids.begin(), kids.end());
    }
  };

  std::vector<double> coverage;
  double ingest_us = 0.0;
  size_t ingest_spans = 0;
  size_t requests = 0;
  enum Kind { kRead, kIngest, kProbe };
  for (const Kind kind : {kRead, kIngest, kProbe}) {
    const std::vector<uint64_t>& keys =
        kind == kRead ? timed.read_keys
                      : (kind == kIngest ? timed.ingest_keys : probe_ingests);
    for (const uint64_t key : keys) {
      const auto it = calls.find(key);
      if (it == calls.end()) continue;
      if (kind != kProbe) ++requests;
      const Span& call = *it->second;
      std::vector<const Span*> server_spans;
      std::vector<double> shard_ms;
      visit(call, [&](const Span& s, const std::vector<const Span*>& kids) {
        if (&s != &call) server_spans.push_back(&s);
        const int layer = static_cast<int>(s.layer);
        if (s.op == Op::kLiveIngest) {
          ingest_us += static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
          ++ingest_spans;
        }
        if (kind == kProbe) return;
        out.allocs[layer] += static_cast<double>(s.allocs);
        out.alloc_bytes[layer] += static_cast<double>(s.alloc_bytes);
        if (kind == kIngest) return;
        out.seen[layer] = true;
        out.self_ms[layer] += SelfNs(s, kids) * 1e-6;
        if (s.op == Op::kQueue) out.engine_queue_ms += Ms(s.end_ns - s.start_ns);
        if (s.op == Op::kRun) out.engine_queue_ms += s.a - s.b;
        if (s.op == Op::kLiveSearch) out.delta_trajectories += s.a;
        if (s.op == Op::kShardSearch) {
          shard_ms.push_back(Ms(s.end_ns - s.start_ns));
          out.search += s.stats;
        }
      });
      if (kind != kRead) continue;
      ++out.reads;
      coverage.push_back(static_cast<double>(CoveredNs(call, server_spans)) /
                         static_cast<double>(call.end_ns - call.start_ns));
      if (!shard_ms.empty()) {
        const double sum = std::accumulate(shard_ms.begin(), shard_ms.end(), 0.0);
        const double mean = sum / static_cast<double>(shard_ms.size());
        out.search_ms += sum;
        if (mean > 0.0) {
          out.shard_max_over_mean +=
              *std::max_element(shard_ms.begin(), shard_ms.end()) / mean;
        }
      }
    }
  }
  // The server transport's own allocations (decode, task hand-off).
  out.allocs[static_cast<int>(Layer::kNet)] += static_cast<double>(loose.allocs);
  out.alloc_bytes[static_cast<int>(Layer::kNet)] +=
      static_cast<double>(loose.bytes);

  const double reads = std::max<double>(1.0, static_cast<double>(out.reads));
  for (int l = 0; l < kNumSpanLayers; ++l) {
    out.self_ms[l] /= reads;
    out.allocs[l] /= std::max<double>(1.0, static_cast<double>(requests));
    out.alloc_bytes[l] /= std::max<double>(1.0, static_cast<double>(requests));
  }
  out.engine_queue_ms /= reads;
  out.delta_trajectories /= reads;
  out.shard_max_over_mean /= reads;
  out.search_ms /= reads;
  out.live_ingest_us =
      ingest_spans == 0 ? 0.0 : ingest_us / static_cast<double>(ingest_spans);
  out.self_coverage = Median(coverage);
  return out;
}

volatile double g_kernel_sink = 0.0;

/// core.dmm_us / core.dmom_us: the public refinement kernels timed on
/// every pool query's reference answers. Returns how many calls it timed.
size_t TimeCoreKernels(const Inputs& in, double* dmm_us, double* dmom_us) {
  constexpr int kRounds = 3;
  double sink = 0.0;
  size_t timed = 0;
  for (int k = 0; k < 2; ++k) {
    int64_t ns = 0;
    size_t calls = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < in.pool.size(); ++q) {
        for (const gat::SearchResult& r : in.reference[k][q]) {
          const gat::Trajectory& t = in.city.trajectory(r.trajectory);
          const int64_t t0 = NowNs();
          sink += k == 0 ? gat::MinMatchDistance(t, in.pool[q])
                         : gat::MinOrderSensitiveMatchDistance(t, in.pool[q]);
          ns += NowNs() - t0;
          ++calls;
        }
      }
    }
    (k == 0 ? *dmm_us : *dmom_us) =
        calls == 0 ? 0.0 : static_cast<double>(ns) * 1e-3 / calls;
    timed += calls;
  }
  g_kernel_sink = sink;  // keeps the timed calls from being optimized out
  return timed;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// ROADMAP's layer-coverage check: each served-path module must have
/// been measured on this run, not just named in the output. Storage
/// needs block cache lookups in the window on mmap_cache and none
/// elsewhere, where its prediction is zero. The traced run (`t`) also
/// needs a span of every spanned module on a timed read (a hook that
/// silently stopped firing fails here) and timed core kernel calls.
/// Index is checked at every server start: a build, or on mmap_cache a
/// load of every shard, that took measurable time. On paper_read the
/// server spans must cover at least 90% of a traced read's round trip.
bool CoverageHolds(const LayerTrace* t, size_t core_calls, bool mmap,
                   double cache_lookups, bool paper_read) {
  bool ok = true;
  auto require = [&](bool measured, const char* module, const char* what) {
    if (!measured) {
      std::fprintf(stderr, "layer coverage: %s: %s\n", module, what);
      ok = false;
    }
  };
  require(mmap ? cache_lookups > 0 : cache_lookups == 0, "storage",
          mmap ? "no block cache lookup" : "block cache used off mmap");
  if (t == nullptr) return ok;
  for (int l = 0; l < kNumSpanLayers; ++l) {
    require(t->seen[l], kSpanLayerNames[l], "no span on any timed read");
  }
  require(core_calls > 0, "core", "no kernel call timed");
  require(!paper_read || t->self_coverage >= 0.9, "all",
          "server spans cover under 90% of a read");
  return ok;
}

// -------------------------------------------------------------- client

struct RunDir {
  std::filesystem::path path;
  ~RunDir() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
};

/// Reads every snapshot file once so the OS page cache holds them: the
/// mmap_cache workload measures the program's miss path, not a device.
void WarmPageCache(const std::filesystem::path& dir) {
  std::vector<char> buf(1 << 20);
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
    }
  }
}

int ClientMain(int argc, char** argv) {
  Workload workload;
  const std::string workload_name = Flag(argc, argv, "--workload");
  if (!ParseWorkload(workload_name, &workload)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_read|live_rw|mmap_cache "
                 "--seed N --seconds S\n",
                 argv[0]);
    return 2;
  }
  const uint64_t seed = std::stoull(Flag(argc, argv, "--seed", "1"));
  const double seconds = std::stod(Flag(argc, argv, "--seconds", "10"));
  const bool traced = kTracedBinary;
  const std::string build_type = GATW_BENCH_BUILD_TYPE;
  if (!kOptimized ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "refusing to report numbers from an unoptimised "
                         "build (build type '%s')\n",
                 build_type.c_str());
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);
  signal(SIGALRM, OnDeadline);
  alarm(kDeadlineSeconds);

  const bool live_rw = workload == Workload::kLiveRw;
  const bool mmap = workload == Workload::kMmapCache;
  const size_t stream_batches =
      live_rw ? static_cast<size_t>(seconds * kLiveBatchesPerSecond) + 1
              : kProbeBatches;
  Phase("generating inputs");
  const Inputs in = MakeInputs(seed, stream_batches);

  {
    const gat::AsyncBlockIo io;
    std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"cpu_model\": \"%s\", \"governor\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"io_backend\": \"%s\", \"host_reference_s\": %.6f}}\n",
                workload_name.c_str(), static_cast<unsigned long long>(seed),
                seconds, traced ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                CpuModel().c_str(), Governor().c_str(), GATW_BENCH_COMPILER,
                build_type.c_str(), io.backend_name(), in.reference_s);
    std::fflush(stdout);
  }

  RunDir run;
  run.path = std::filesystem::path(".bench_run") /
             (workload_name + "-" + std::to_string(seed) + "-" +
              std::to_string(getpid()));
  std::filesystem::create_directories(run.path);
  const std::string dataset_path = (run.path / "city.gatd").string();
  if (!gat::SaveBinary(in.city, dataset_path)) {
    std::fprintf(stderr, "cannot write %s\n", dataset_path.c_str());
    return 1;
  }

  std::vector<std::string> server_args = {argv[0], "--serve", "--dataset",
                                          dataset_path};
  const std::filesystem::path snapshot_dir = run.path / "snapshots";
  if (mmap) {
    // Prime the snapshot directory; every timed setup is a restart.
    gat::ShardOptions prime;
    prime.num_shards = kShards;
    prime.build_threads = 4;
    prime.snapshot_dir = snapshot_dir.string();
    prime.mmap_disk_tier = true;
    { const gat::ShardedIndex primed(in.city, gat::GatConfig{}, prime); }
    server_args.insert(server_args.end(),
                       {"--snapshot-dir", snapshot_dir.string()});
  }
  // live_rw merges every `every` accepted check-ins, the first after a
  // quarter period, so kLiveMerges merges start and finish in the window.
  if (live_rw) {
    const double batches_per_merge =
        seconds * kLiveBatchesPerSecond / kLiveMerges;
    const uint64_t merge_every =
        static_cast<uint64_t>(std::llround(batches_per_merge)) *
        kBatchCheckIns;
    server_args.insert(server_args.end(),
                       {"--merge-every", std::to_string(merge_every)});
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  Phase("timing server setup");
  // ---- setup: kSetups cold starts, each timed to its first answer.
  std::vector<double> setup_s;
  ServerProcess server;
  Session session;
  session.in = &in;
  session.traced = traced;
  double index_seconds = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      std::vector<std::string> ignored;
      server.Finish(&ignored);
    }
    if (mmap) WarmPageCache(snapshot_dir);
    session.keys.Reset();
    const int64_t t0 = NowNs();
    std::string line;
    if (!server.Start(server_args) || !server.ReadLine(&line) ||
        line.rfind("LISTENING ", 0) != 0) {
      std::fprintf(stderr, "server did not start\n");
      return 1;
    }
    session.port = static_cast<uint16_t>(std::stoul(line.substr(10)));
    Tally first;
    {
      Connection connection(session, first);
      connection.Read(0, 0);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    attempted += first.reads;
    failed += first.failed;
    if (first.wrong != 0) correct = false;
    // The index layer's check: a restart loads every shard from its
    // snapshot, any other start builds them, and either took time.
    const auto fields = ParseFields(line);
    index_seconds = fields.count("index_s") ? fields.at("index_s") : 0.0;
    const double loaded = fields.count("loaded") ? fields.at("loaded") : -1.0;
    if (loaded != (mmap ? kShards : 0) || !(index_seconds > 0.0)) {
      std::fprintf(stderr,
                   "layer coverage: index: start %d loaded %g of %u shards "
                   "from snapshots (want %u) in %g s\n",
                   i, loaded, kShards, mmap ? kShards : 0, index_seconds);
      return 1;
    }
  }

  Phase("warming up");
  // ---- warm-up: up to one closed-loop pass over the pool, untimed.
  {
    const Tally warm =
        Drive(session, NowNs(),
              NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9),
              kPoolQueries / 2, nullptr);
    attempted += warm.reads;
    failed += warm.failed;
    if (warm.wrong != 0) correct = false;
  }

  Phase("timed phase");
  std::string reply;
  if (traced) {
    server.Command("TRACE 1", "OK", &reply);
    SetRecording(true);
  }
  if (!server.Command("MARK", "MARK", &reply)) return 1;
  const auto before = ParseFields(reply);
  session.live_answers = live_rw;
  Stream stream;
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  Tally tally =
      Drive(session, start_ns, end_ns, SIZE_MAX, live_rw ? &stream : nullptr);
  const double elapsed_s =
      static_cast<double>(tally.last_done_ns - start_ns) * 1e-9;
  if (!server.Command("MARK", "MARK", &reply)) return 1;
  const auto after = ParseFields(reply);

  // ---- ingest: the timed stream on live_rw; elsewhere a closed-loop
  // probe of the idle server (after the read window, so reads still ran
  // on an empty delta).
  Tally probe;
  if (!live_rw) {
    Connection connection(session, probe);
    for (const auto& batch : in.batches) {
      if (!connection.Ingest(batch, &stream.watermark)) break;
    }
  }
  const std::vector<double>& ingest_ms =
      live_rw ? tally.ingest_ms : probe.ingest_ms;
  if (traced) {
    SetRecording(false);
    server.Command("TRACE 0", "OK", &reply);
  }
  attempted += tally.reads + tally.ingests + probe.ingests;
  failed += tally.failed + probe.failed;
  if (tally.wrong != 0 || probe.wrong != 0) correct = false;
  if (after.count("merge_failed") && after.at("merge_failed") != 0) {
    correct = false;
  }

  Phase("checking");
  // ---- live_rw end state: stop merging, rebuild the same data
  // monolithically from the acknowledged stream and the merge cuts, and
  // check a sample of answers bit for bit.
  if (live_rw) {
    if (!server.Command("QUIESCE", "QUIESCED", &reply)) return 1;
    std::istringstream cuts_in(reply.substr(9));
    size_t n = 0;
    cuts_in >> n;
    std::vector<uint64_t> cuts(n);
    for (uint64_t& cut : cuts) cuts_in >> cut;
    std::vector<gat::CheckIn> log;
    for (size_t j = 0; j < stream.batches_acked; ++j) {
      log.insert(log.end(), in.batches[j].begin(), in.batches[j].end());
    }
    bool consistent = stream.watermark == log.size();
    uint64_t from = 0;
    gat::Dataset state = in.city.ExtendWith({});
    for (const uint64_t cut : cuts) {
      if (cut < from || cut > log.size()) {
        consistent = false;
        break;
      }
      state = state.ExtendWith(Segment(log, from, cut));
      from = cut;
    }
    if (!consistent) {
      std::fprintf(stderr, "live_rw: merge cuts inconsistent with the "
                           "acknowledged stream\n");
      correct = false;
    } else {
      state = state.ExtendWith(Segment(log, from, log.size()));
      const gat::GatIndex index(state);
      const gat::GatSearcher reference(state, index);
      gat::wire::Client client;
      client.Connect("127.0.0.1", session.port);
      for (size_t q = 0; q < kVerifyQueries; ++q) {
        for (int k = 0; k < 2; ++k) {
          const gat::ResultList expect =
              reference.Search(in.pool[q], kTopK, kKinds[k]);
          gat::ServeResult result;
          const bool ok = client.Call(in.requests[k][q], &result);
          ++attempted;
          if (!ok || !ExactAnswer(result, expect)) {
            ++failed;
            correct = false;
          }
        }
      }
    }
  }

  // ---- traced-only measurements beside the served path
  double storage_self_ms = 0.0;
  if (traced && mmap) {
    if (server.Command("STORAGE_AB", "STORAGE_AB", &reply) &&
        reply.find("error") == std::string::npos) {
      const auto ab = ParseFields(reply);
      storage_self_ms = ab.at("mmap_ms") - ab.at("ram_ms");
    } else {
      std::fprintf(stderr, "storage comparison failed\n");
      correct = false;
    }
  }
  double dmm_us = 0.0;
  double dmom_us = 0.0;
  size_t core_calls = 0;
  if (traced) core_calls = TimeCoreKernels(in, &dmm_us, &dmom_us);

  Phase("stopping server");
  std::vector<std::string> trailing;
  if (!server.Finish(&trailing)) {
    std::fprintf(stderr, "server did not exit cleanly\n");
    return 1;
  }
  double peak_rss_mb = 0.0;
  for (const std::string& line : trailing) {
    if (line.rfind("BYE ", 0) == 0) {
      peak_rss_mb = ParseFields(line)["maxrss_kb"] / 1024.0;
    }
  }

  auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
  const uint64_t reads = tally.latency_ms[0].size() + tally.latency_ms[1].size();
  const double timed_ops =
      static_cast<double>(tally.reads) + (live_rw ? tally.ingests : 0);
  const double read_qps = static_cast<double>(reads) / elapsed_s;
  const double atsq_p50 = Median(tally.latency_ms[0]);
  const double oatsq_p50 = Median(tally.latency_ms[1]);
  const double lookups = delta("hits") + delta("misses");

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"read_qps", read_qps, "1/s"},
        {"atsq_p50_ms", atsq_p50, "ms"},
        {"atsq_p99_ms", Percentile(tally.latency_ms[0], 0.99), "ms"},
        {"oatsq_p50_ms", oatsq_p50, "ms"},
        {"oatsq_p99_ms", Percentile(tally.latency_ms[1], 0.99), "ms"},
        {"cpu_ms_per_req", delta("cpu_us") * 1e-3 / timed_ops, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    if (!CoverageHolds(nullptr, core_calls, mmap, lookups, false)) return 1;
  } else {
    const Unattributed loose{static_cast<uint64_t>(delta("loose_allocs")),
                             static_cast<uint64_t>(delta("loose_bytes"))};
    const LayerTrace t = AnalyzeTrace(ParseSpans(trailing), TakeSpans(), tally,
                                      probe.ingest_keys, loose);
    const double per_read = std::max<double>(1.0, static_cast<double>(reads));
    const gat::SearchStats& s = t.search;
    auto layer = [&](Layer l) { return static_cast<int>(l); };
    metrics = {
        {"net.self_ms", t.self_ms[layer(Layer::kNet)], "ms"},
        {"net.request_bytes", tally.request_bytes / per_read, "bytes"},
        {"net.response_bytes", tally.response_bytes / per_read, "bytes"},
        {"serve.self_us", t.self_ms[layer(Layer::kServe)] * 1e3, "us"},
        {"serve.shed", delta("shed"), "count"},
        {"serve.deadline_misses", delta("deadline_misses"), "count"},
        {"engine.queue_ms", t.engine_queue_ms, "ms"},
        {"engine.tasks_per_req", delta("tasks") / timed_ops, "count"},
        {"live.delta_scan_ms", t.self_ms[layer(Layer::kLive)], "ms"},
        {"live.delta_trajectories", t.delta_trajectories, "count"},
        {"live.ingest_us", t.live_ingest_us, "us"},
        {"live.merge_s",
         delta("merges") > 0 ? delta("merge_s") / delta("merges") : 0.0, "s"},
        {"live.merges", delta("merges"), "count"},
        {"shard.self_ms", t.self_ms[layer(Layer::kShard)], "ms"},
        {"shard.max_over_mean", t.shard_max_over_mean, "ratio"},
        {"search.ms", t.search_ms, "ms"},
        {"search.candidates", s.candidates_retrieved / per_read, "count"},
        {"search.tas_pruned", s.tas_pruned / per_read, "count"},
        {"search.activity_rejected", s.activity_rejected / per_read, "count"},
        {"search.mib_rejected", s.mib_rejected / per_read, "count"},
        {"search.distance_computations", s.distance_computations / per_read,
         "count"},
        {"search.nodes_popped", s.nodes_popped / per_read, "count"},
        {"search.rounds", s.rounds / per_read, "count"},
        {"search.disk_reads", s.disk_reads / per_read, "count"},
        {"search.useful_ratio",
         s.candidates_retrieved == 0
             ? 0.0
             : tally.results_returned /
                   static_cast<double>(s.candidates_retrieved),
         "ratio"},
        {"core.dmm_us", dmm_us, "us"},
        {"core.dmom_us", dmom_us, "us"},
        {"index.build_s", mmap ? 0.0 : index_seconds, "s"},
        {"index.load_s", mmap ? index_seconds : 0.0, "s"},
        {"storage.hit_rate",
         lookups == 0 ? 0.0 : delta("hits") / lookups, "ratio"},
        {"storage.blocks_read_per_query", delta("misses") / per_read,
         "count"},
        {"storage.evictions", delta("evictions") / per_read, "count/query"},
        {"storage.self_ms", storage_self_ms, "ms"},
        {"loadgen.late_ms",
         tally.late_samples == 0 ? 0.0 : tally.late_ms / tally.late_samples,
         "ms"},
        {"trace.read_qps", read_qps, "1/s"},
        {"trace.atsq_p50_ms", atsq_p50, "ms"},
        {"trace.oatsq_p50_ms", oatsq_p50, "ms"},
        {"trace.ingest_p50_ms", Median(ingest_ms), "ms"},
        {"trace.ingest_p99_ms", Percentile(ingest_ms, 0.99), "ms"},
        {"trace.self_coverage", t.self_coverage, "ratio"},
    };
    for (int l = 0; l < kNumSpanLayers; ++l) {
      const std::string name = kSpanLayerNames[l];
      metrics.push_back({name + ".allocs_per_req", t.allocs[l], "count"});
      metrics.push_back(
          {name + ".alloc_bytes_per_req", t.alloc_bytes[l], "bytes"});
    }
    if (!CoverageHolds(&t, core_calls, mmap, lookups,
                       workload == Workload::kPaperRead)) {
      return 1;
    }
  }
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace gatw

int main(int argc, char** argv) {
  if (gatw::HasFlag(argc, argv, "--serve")) return gatw::ServeMain(argc, argv);
  return gatw::ClientMain(argc, argv);
}
