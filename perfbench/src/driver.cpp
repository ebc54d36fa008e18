// perfbench_driver: one benchmark run of one workload against the shipped
// rabitq_server binary. perfbench/run.py builds it and passes the
// workload's parameters; the driver prints one JSON line with every metric
// (value, unit, sample count), the correctness gate's verdict and the run's
// validity. Progress goes to stderr.
//
// Phases, in order: set-up (CreateCollection, repeated on fresh servers),
// warm-up, timed cycles of open loop + closed loop, server stats, recall,
// [traced run: snapshot, then the layer replays with the server still up],
// correctness gate, server stop.

#include <sched.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "common.h"
#include "gate.h"
#include "perfbench_build_info.h"
#include "replay.h"
#include "wire.h"

namespace perfbench {
namespace {

constexpr const char* kCollection = "bench";

struct Args {
  std::map<std::string, std::string> kv;

  std::string Str(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  double Num(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  std::size_t Size(const std::string& key, std::size_t fallback) const {
    return static_cast<std::size_t>(Num(key, static_cast<double>(fallback)));
  }
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

void Check(const rabitq::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

std::size_t CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Workload ParseWorkload(const Args& a) {
  Workload w;
  w.name = a.Str("workload", "");
  w.n = a.Size("n", w.n);
  w.lists = a.Size("lists", w.lists);
  w.bits = a.Size("bits", w.bits);
  w.shards = a.Size("shards", w.shards);
  w.nprobe = a.Size("nprobe", w.nprobe);
  w.open_rate = a.Num("open-rate", w.open_rate);
  w.frame = a.Size("frame", w.frame);
  w.setups = std::max<std::size_t>(1, a.Size("setups", w.setups));
  w.recall_floor = a.Num("recall-floor", w.recall_floor);
  const std::string mix = a.Str("mix", "1,0,0,0");
  if (std::sscanf(mix.c_str(), "%lf,%lf,%lf,%lf", &w.mix.search, &w.mix.add,
                  &w.mix.update, &w.mix.del) != 4) {
    Fail("--mix wants search,add,update,delete shares");
  }
  if (w.name.empty() || w.n == 0 || w.lists == 0 || w.shards == 0 ||
      w.nprobe == 0 || w.open_rate <= 0) {
    Fail("invalid workload parameters");
  }
  return w;
}

/// Numeric value following "\"key\":" at or after `from` in an exported
/// JSON payload; 0 when absent.
double JsonNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

double HistogramField(const std::string& json, const std::string& histogram,
                      const std::string& field) {
  const std::size_t at = json.find("\"" + histogram + "\":{");
  if (at == std::string::npos) return 0.0;
  return JsonNumber(json, field, at);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Host-wide CPU time counters from /proc/stat, in ticks.
struct CpuTimes {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  unsigned long long v = 0;
  for (int field = 0; field < 8 && (stat >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time the hypervisor gave to other tenants ("steal")
/// between two readings.
double StealShare(const CpuTimes& a, const CpuTimes& b) {
  const unsigned long long total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNum(values[i]);
  }
  out += ']';
  return out;
}

/// Timed windows per run: kWindows at least, up to kMaxWindows while fewer
/// than kCalmWindows were calm (generator on schedule, steal share at or
/// below kCalmSteal); the kCalmWindows calmest are reported. See the timed
/// phases in Run.
constexpr std::size_t kWindows = 12;
constexpr std::size_t kMaxWindows = 24;
constexpr std::size_t kCalmWindows = 6;
constexpr double kCalmSteal = 0.02;

/// The open-loop generator kept its schedule unless its median wake-up lag
/// or its share of sends later than kLateSendUs says that the generator,
/// not the server, fell behind. A run whose reported windows fell behind
/// is invalid, not slow.
constexpr double kMaxGenLagP50Us = 250.0;
constexpr double kMaxLateShare = 0.05;

bool OnSchedule(const PhaseResult& open) {
  const std::size_t sends = open.gen_lag_us.size();
  const double late_share =
      sends == 0 ? 0.0
                 : static_cast<double>(open.late_sends) / static_cast<double>(sends);
  return Median(open.gen_lag_us) <= kMaxGenLagP50Us && late_share <= kMaxLateShare;
}

/// One timed cycle: its phases, the host's steal share while it ran, and
/// whether the generator kept its schedule.
struct Window {
  PhaseResult open;
  PhaseResult closed;
  double steal = 0.0;
  bool on_schedule = true;
};

template <typename Fn>
std::vector<Window> RunWindows(Fn cycle) {
  std::vector<Window> windows;
  std::size_t calm = 0;
  while (windows.size() < kMaxWindows) {
    const CpuTimes before = ReadCpuTimes();
    Window window = cycle(windows.size());
    window.steal = StealShare(before, ReadCpuTimes());
    window.on_schedule = OnSchedule(window.open);
    if (window.on_schedule && window.steal <= kCalmSteal) ++calm;
    windows.push_back(std::move(window));
    if (windows.size() >= kWindows && calm >= kCalmWindows) break;
  }
  return windows;
}

/// Indices of the `count` calmest windows: those on schedule first, then
/// by least steal (ties: earliest).
std::vector<std::size_t> CalmestWindows(const std::vector<Window>& windows,
                                        std::size_t count) {
  std::vector<std::size_t> order(windows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::make_pair(!windows[a].on_schedule, windows[a].steal) <
           std::make_pair(!windows[b].on_schedule, windows[b].steal);
  });
  order.resize(std::min(count, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

/// Latency percentile of samples pooled over the calm windows.
MetricOut PooledLatency(const std::string& name,
                        const std::vector<double>& samples, double q,
                        const std::string& what) {
  const Percentile p = SupportedPercentile(samples, q);
  char note[200];
  std::snprintf(note, sizeof(note),
                ", p%g of %zu samples pooled over the %zu calmest windows%s",
                p.q * 100.0, p.n, kCalmWindows,
                p.q < q ? " (too few samples for the requested percentile)"
                        : "");
  return MetricOut{name, p.value, "us", p.n, what + note};
}

/// Logical parent layer of each replayed span: the layer whose public call
/// sits above it in a request's path.
const char* ParentLayer(const std::string& name) {
  if (name == "engine.submit_async") return "client.search";
  if (name == "index.search") return "engine.submit_async";
  if (name == "core.rotate" || name == "index.probe_order" ||
      name == "core.query_prepare" || name == "quant.fastscan" ||
      name == "core.scan" || name == "core.refine" || name == "index.merge") {
    return "index.search";
  }
  return nullptr;
}

/// Writes every span as a JSON line (parents resolved by layer and query
/// id) and returns each layer's mean self time in microseconds: its span's
/// duration minus the durations of its child layers' spans.
std::map<std::string, double> WriteTrace(const std::string& path,
                                         const Workload& w, std::uint64_t seed,
                                         const std::vector<Span>& spans) {
  std::map<std::pair<std::string, std::uint32_t>, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(std::make_pair(std::string(spans[i].name), spans[i].qid), i);
  }
  std::vector<long long> parent(spans.size(), -1);
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const char* layer = ParentLayer(spans[i].name);
    if (layer == nullptr) continue;
    const auto it = index_of.find({layer, spans[i].qid});
    if (it == index_of.end()) continue;
    parent[i] = static_cast<long long>(it->second);
    child_ns[it->second] += spans[i].end_ns - spans[i].start_ns;
  }
  std::map<std::string, std::pair<double, std::size_t>> self;
  std::ofstream out(path);
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
      << ",\"spans\":" << spans.size() << "}\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self_ns = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    out << "{\"id\":" << i << ",\"name\":\"" << spans[i].name
        << "\",\"qid\":" << spans[i].qid << ",\"start_ns\":" << spans[i].start_ns
        << ",\"end_ns\":" << spans[i].end_ns << ",\"parent\":" << parent[i]
        << ",\"self_ns\":" << self_ns << "}\n";
    auto& acc = self[spans[i].name];
    acc.first += static_cast<double>(self_ns) * 1e-3;
    ++acc.second;
  }
  std::map<std::string, double> mean_self;
  for (const auto& [name, acc] : self) {
    mean_self[name] = acc.first / static_cast<double>(acc.second);
  }
  return mean_self;
}

int Run(const Args& args) {
  const Workload w = ParseWorkload(args);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  const double seconds = args.Num("seconds", 10);
  const bool trace = args.Num("trace", 0) != 0;
  const std::string server_bin = args.Str("server", "");
  const std::string work_dir = args.Str("work-dir", "");
  const std::string trace_out = args.Str("trace-out", "");
  if (server_bin.empty() || work_dir.empty() || seconds <= 0) {
    Fail("--server, --work-dir and a positive --seconds are required");
  }
  const std::size_t nproc = CountCpus();
  InstallTerminationHandler();
  // Wake open-loop senders as close to their due time as the kernel allows.
  prctl(PR_SET_TIMERSLACK, 1UL);
  std::filesystem::create_directories(work_dir);

  // ---- Inputs. The indexed vectors are one fixed draw for every seed:
  // the server's KMeans partitions them into lists, and the list sizes set
  // the work per query. With a per-seed draw, large-lists estimated 42k to
  // 61k codes per query depending on the seed alone. The seed draws the
  // queries, gate probes, arrival times, operation order and write
  // targets. ----
  constexpr std::uint64_t kIndexedData = 0x5EEDC3A7E5ULL;
  const Mixture mixture(w.components, w.dim, w.sigma, kIndexedData);
  rabitq::Rng base_rng(rabitq::MixSeed(kIndexedData, 1));
  std::vector<std::uint32_t> component_of;
  const rabitq::Matrix base = mixture.Draw(w.n, &base_rng, &component_of);
  rabitq::Rng query_rng(rabitq::MixSeed(seed, 1));
  const rabitq::Matrix queries = mixture.Draw(w.num_queries, &query_rng, nullptr);
  const rabitq::Matrix gate_queries =
      mixture.Draw(w.gate_queries, &query_rng, nullptr);
  LiveSet live(base);

  const std::size_t workers = nproc;
  std::vector<WritePool> pools(workers);
  for (std::size_t wk = 0; wk < workers; ++wk) {
    pools[wk].rng = rabitq::Rng(rabitq::MixSeed(seed, 100 + wk));
  }
  for (std::size_t id = 0; id < w.n; ++id) {
    if (component_of[id] < w.hot_components) {
      pools[id % workers].ids.push_back(static_cast<std::uint32_t>(id));
    }
  }

  rabitq::server::WireCollectionSpec spec;
  spec.dim = static_cast<std::uint32_t>(w.dim);
  spec.metric = rabitq::Metric::kL2;
  spec.bits_per_dim = static_cast<std::uint8_t>(w.bits);
  spec.num_shards = static_cast<std::uint32_t>(w.shards);
  spec.num_lists = static_cast<std::uint32_t>(w.lists);

  // ---- Set-up: CreateCollection on a fresh server each time (upload,
  // KMeans, encode, publish); the last server stays up for the run. The
  // repetitions of the first kSetupWarmupS are untimed: on a host that was
  // idle, the first seconds of builds run up to 2x slower than later ones.
  // setup_s is the median of the w.setups timed repetitions after them. ----
  constexpr double kSetupWarmupS = 2.0;
  ServerProcess server;
  rabitq::server::Client admin;
  std::vector<double> setup_s;
  long long rss_before = -1;
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t rep = 0; setup_s.size() < w.setups; ++rep) {
    const bool warm_up = MicrosBetween(setup_start, Clock::now()) * 1e-6 <
                         kSetupWarmupS;
    admin.Close();
    Check(server.Start(server_bin, work_dir + "/server_root"), "start server");
    Check(admin.Connect("127.0.0.1", server.port()), "connect");
    rss_before = server.RssBytes();
    const Clock::time_point t0 = Clock::now();
    Check(admin.CreateCollection(kCollection, spec, base), "create collection");
    const double seconds_taken = MicrosBetween(t0, Clock::now()) * 1e-6;
    if (!warm_up) setup_s.push_back(seconds_taken);
    std::fprintf(stderr, "setup %zu%s: %.3f s\n", rep,
                 warm_up ? " (warm-up)" : "", seconds_taken);
  }

  std::vector<rabitq::server::Client> clients(workers);
  for (auto& c : clients) Check(c.Connect("127.0.0.1", server.port()), "connect");
  WireContext ctx;
  ctx.workload = &w;
  ctx.seed = seed;
  ctx.collection = kCollection;
  ctx.queries = &queries;
  ctx.mixture = &mixture;
  ctx.live = &live;
  ctx.clients = &clients;
  ctx.pools = &pools;

  // ---- Warm-up (untimed): fills caches and server-side scratch. ----
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t qi = i % w.num_queries;
    admin.Search(kCollection, queries.Row(qi), w.dim, SeededOptions(w, seed, qi));
  }
  if (w.frame > 1) {
    std::vector<rabitq::SearchResponse> responses;
    for (std::size_t i = 0; i < 8; ++i) {
      admin.BatchSearch(kCollection, queries.Row(0), w.frame, w.dim,
                        BaseOptions(w), &responses);
    }
  }
  const long long rss_after = server.RssBytes();

  LayerTimes layers;
  SpanLog log;

  // ---- Timed phases: cycles of [open-loop window][closed-loop window].
  // Cycling makes both phases sample the host under the same conditions.
  // On a shared virtual host, co-tenants take CPU time from the guest
  // ("steal") in bursts lasting seconds, and a burst slows every phase it
  // overlaps several-fold. The metrics therefore come from the
  // kCalmWindows cycles with the least steal (extending the run by up to
  // kMaxWindows - kWindows cycles to find them), and every window's steal
  // share is printed. ----
  const double window_s = seconds / (2.0 * kWindows);
  const std::size_t open_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(w.open_rate * window_s)));
  std::fprintf(stderr,
               "%zu+ x (open loop: %zu requests at %.0f/s; closed loop: %zu "
               "connections for %.2f s)\n",
               kWindows, open_count, w.open_rate, workers, window_s);
  const std::vector<Window> windows = RunWindows([&](std::size_t win) {
    Window cycle;
    cycle.open = RunOpenLoop(ctx, w.open_rate, open_count, win * open_count,
                             w.mix, 10 + win);
    // At least as many closed-loop requests as open-loop ones, so a
    // slowed-down host still yields the same percentile.
    cycle.closed = RunClosedLoop(ctx, window_s, open_count, w.mix, 20 + win);
    return cycle;
  });

  // Every window counts toward attempts and failures; the calm ones give
  // the latency and throughput figures and the generator check.
  PhaseResult open;
  PhaseResult closed;
  for (const Window& cycle : windows) {
    Append(&open, cycle.open);
    Append(&closed, cycle.closed);
  }
  const std::vector<std::size_t> calm = CalmestWindows(windows, kCalmWindows);
  PhaseResult calm_open;
  PhaseResult calm_closed;
  std::vector<double> calm_ops_per_s;
  for (const std::size_t i : calm) {
    Append(&calm_open, windows[i].open);
    Append(&calm_closed, windows[i].closed);
    calm_ops_per_s.push_back(static_cast<double>(windows[i].closed.ops_done) /
                             windows[i].closed.seconds);
  }

  // The server closes connections idle past its io timeout; the admin
  // connection sat out the timed phases.
  admin.Close();
  Check(admin.Connect("127.0.0.1", server.port()), "reconnect");
  std::string collection_stats;
  std::string server_stats;
  Check(admin.Stats(kCollection, 0, &collection_stats), "collection stats");

  // ---- Recall on the live set after the last write (untimed). ----
  std::vector<std::vector<rabitq::Neighbor>> recall_got(w.recall_queries);
  std::size_t recall_failed = 0;
  for (std::size_t qi = 0; qi < w.recall_queries; ++qi) {
    rabitq::SearchResponse r =
        admin.Search(kCollection, queries.Row(qi), w.dim, SeededOptions(w, seed, qi));
    if (!r.status.ok()) ++recall_failed;
    recall_got[qi] = std::move(r.neighbors);
  }
  std::vector<double> recall(w.recall_queries, 0.0);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < workers; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t qi = t; qi < w.recall_queries; qi += workers) {
          recall[qi] = RecallAtK(recall_got[qi],
                                 live.ExactTopK(queries.Row(qi), w.k), w.k);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // ---- Traced run: per-layer replays on a snapshot of the collection,
  // with the server still up so the wire is replayed alongside. On churn
  // this is the state after the last write; on a read-only workload it is
  // the index the timed windows ran on. No span is recorded before this
  // point, so the timed windows of a traced run do the same work as those
  // of an untraced one. ----
  if (trace) {
    Check(admin.Snapshot(kCollection), "snapshot");
    Check(ReplayLayers(work_dir + "/server_root/" + kCollection + "/snapshot",
                       &admin, kCollection, w, seed, base, queries, mixture,
                       w.replay_queries, &log, &layers),
          "layer replay");
  }

  // ---- Correctness gate: exhaustive searches == exact top-k of the live
  // set, which reflects every acknowledged write. ----
  GateResult gate;
  std::size_t gate_failed = 0;
  gate.recall = Mean(recall);
  gate.recall_floor = w.recall_floor;
  for (std::size_t g = 0; g < w.gate_queries; ++g) {
    rabitq::SearchOptions exhaustive = BaseOptions(w);
    exhaustive.nprobe = w.lists;
    exhaustive.epsilon0_override = 50.0f;
    exhaustive.seed = QuerySeed(seed, 1000000 + g);
    const rabitq::SearchResponse r =
        admin.Search(kCollection, gate_queries.Row(g), w.dim, exhaustive);
    if (!r.status.ok()) {
      ++gate_failed;
      ++gate.checked;
      if (gate.mismatched++ == 0) {
        gate.first_mismatch = "probe query " + std::to_string(g) + ": " +
                              r.status.ToString();
      }
      continue;
    }
    GateCheck(r.neighbors, live.ExactTopK(gate_queries.Row(g), w.k), g, &gate);
  }
  Check(admin.Stats("", 0, &server_stats), "server stats");
  for (auto& c : clients) c.Close();
  admin.Close();
  server.Stop();
  std::filesystem::remove_all(work_dir + "/server_root");

  // ---- Metrics. ----
  const std::size_t attempted = open.attempted + closed.attempted +
                                w.recall_queries + w.gate_queries;
  const std::size_t failed =
      open.failed + closed.failed + recall_failed + gate_failed;

  std::vector<MetricOut> metrics;
  metrics.push_back({"setup_s", Median(setup_s), "s", setup_s.size(),
                     "median CreateCollection wall time on a fresh server, "
                     "over " + std::to_string(setup_s.size()) +
                         " repetitions after a warm-up"});
  std::vector<double> loaded = calm_closed.search_us;
  loaded.insert(loaded.end(), calm_closed.write_us.begin(),
                calm_closed.write_us.end());
  const std::string search_what = "open-loop Search round trip from due time";
  metrics.push_back(
      PooledLatency("search_p50_us", calm_open.search_us, 0.5, search_what));
  metrics.push_back(
      PooledLatency("search_p99_us", calm_open.search_us, 0.99, search_what));
  metrics.push_back({"ops_per_s", Median(calm_ops_per_s), "1/s",
                     calm_closed.ops_done,
                     "closed-loop completed operations per second (a frame of "
                     "m counts m) over " + std::to_string(workers) +
                         " connections, median of the " +
                         std::to_string(kCalmWindows) + " calmest of " +
                         std::to_string(windows.size()) + " windows"});
  metrics.push_back(PooledLatency("loaded_p99_us", loaded, 0.99,
                                  "closed-loop per-request round trip"));
  const std::string write_what =
      "open-loop Add/Update/Delete round trip from due time";
  for (const auto& [name, q] : {std::pair{"write_p50_us", 0.5},
                                std::pair{"write_p99_us", 0.99}}) {
    metrics.push_back(w.has_writes()
                          ? PooledLatency(name, calm_open.write_us, q, write_what)
                          : MetricOut{name, 0.0, "us", 0,
                                      "no writes in this workload"});
  }
  metrics.push_back({"recall_at_10", Mean(recall), "ratio", recall.size(),
                     "mean recall@10 vs exact top-10 of the live set"});
  const std::size_t live_vectors = w.n;
  metrics.push_back(
      {"rss_bytes_per_vector",
       static_cast<double>(rss_after - rss_before) /
           static_cast<double>(live_vectors),
       "B", live_vectors,
       "server VmRSS growth from before CreateCollection to after warm-up, "
       "per vector; includes the raw float vectors (" +
           std::to_string(w.dim * 4) + " B each)"});

  std::map<std::string, double> self_time;
  if (trace) {
    if (!trace_out.empty()) {
      self_time = WriteTrace(trace_out, w, seed, log.spans());
    }

    const double client_p50 = Median(layers.client_search);
    const double submit_p50 = Median(layers.engine_submit);
    const double search_p50 = Median(layers.index_search);
    const std::size_t nq = layers.index_search.size();
    const double per_query = nq > 0 ? 1.0 / static_cast<double>(nq) : 0.0;
    auto count = [](const char* name, double v, std::size_t n, const char* note) {
      return MetricOut{name, v, "count", n, note};
    };
    auto ns_per = [](const std::vector<double>& us, std::size_t units) {
      return units > 0 ? Sum(us) * 1e3 / static_cast<double>(units) : 0.0;
    };
    metrics.push_back({"server.overhead_p50_us", client_p50 - submit_p50, "us",
                       nq, "p50 Client::Search - p50 in-process SubmitAsync"});
    metrics.push_back(count("server.request_errors",
                            JsonNumber(server_stats, "rabitq_server_request_errors_total"),
                            1, "rabitq_server_request_errors_total"));
    metrics.push_back(count("server.frame_errors",
                            JsonNumber(server_stats, "rabitq_server_frame_errors_total"),
                            1, "rabitq_server_frame_errors_total"));
    metrics.push_back({"engine.wait_p50_us", submit_p50 - search_p50, "us", nq,
                       "p50 SubmitAsync - p50 index search: queue wait, linger, "
                       "hand-offs"});
    metrics.push_back({"engine.queue_wait_p50_us", layers.queue_wait_p50_us, "us",
                       layers.queue_wait_samples,
                       "engine's own sampled rabitq_stage_queue_wait_us p50"});
    metrics.push_back({"engine.batch_us_per_query", Median(layers.batch_per_query),
                       "us", layers.batch_per_query.size(),
                       "p50 SearchBatch time at the frame size (" +
                           std::to_string(std::max<std::size_t>(1, w.frame)) +
                           ") / m"});
    metrics.push_back(count("engine.rejected",
                            JsonNumber(collection_stats, "rabitq_queries_rejected_total"),
                            1, "server engine, timed phases"));
    metrics.push_back(count("engine.shed",
                            JsonNumber(collection_stats, "rabitq_queries_shed_total"),
                            1, "server engine, timed phases"));
    metrics.push_back(count("engine.deadline_exceeded",
                            JsonNumber(collection_stats, "rabitq_deadline_exceeded_total"),
                            1, "server engine, timed phases"));
    metrics.push_back({"engine.insert_p50_us", Median(layers.insert), "us",
                       layers.insert.size(), "in-process SearchEngine::Insert"});
    metrics.push_back({"engine.update_p50_us", Median(layers.update), "us",
                       layers.update.size(), "in-process SearchEngine::Update"});
    metrics.push_back({"engine.delete_p50_us", Median(layers.del), "us",
                       layers.del.size(), "in-process SearchEngine::Delete"});
    metrics.push_back(count("engine.compactions",
                            JsonNumber(collection_stats, "rabitq_lists_compacted_total"),
                            1, "lists compacted by the server, timed phases"));
    metrics.push_back({"engine.compaction_s",
                       HistogramField(collection_stats,
                                      "rabitq_compaction_pass_seconds", "sum"),
                       "s",
                       static_cast<std::size_t>(HistogramField(
                           collection_stats, "rabitq_compaction_pass_seconds",
                           "count")),
                       "server compaction pass wall time, timed phases"});
    metrics.push_back({"index.search_p50_us", search_p50, "us", nq,
                       "one thread, ShardedIndex::SearchWithScratch"});
    metrics.push_back({"index.probe_order_us", Median(layers.probe_order), "us", nq,
                       "p50 ProbeOrderInto over every shard"});
    metrics.push_back({"index.merge_us", Median(layers.merge), "us", nq,
                       "p50 MergeShardResults"});
    metrics.push_back({"index.remainder_us", Median(layers.remainder), "us", nq,
                       "p50 per query of search minus every replayed child "
                       "(rerank and bookkeeping)"});
    metrics.push_back(count("index.lists_probed",
                            static_cast<double>(layers.lists_probed) * per_query,
                            nq, "mean per query, SearchResponse.stats"));
    metrics.push_back(count("index.codes_estimated",
                            static_cast<double>(layers.codes_estimated) * per_query,
                            nq, "mean per query, SearchResponse.stats"));
    metrics.push_back(count("index.codes_refined",
                            static_cast<double>(layers.codes_refined) * per_query,
                            nq, "mean per query, SearchResponse.stats"));
    const double reranked =
        static_cast<double>(layers.candidates_reranked) * per_query;
    metrics.push_back(count("index.candidates_reranked", reranked, nq,
                            "mean per query, SearchResponse.stats"));
    metrics.push_back({"index.rerank_yield",
                       reranked > 0 ? static_cast<double>(w.k) / reranked : 0.0,
                       "ratio", nq, "k / candidates_reranked"});
    metrics.push_back({"core.rotate_us", Median(layers.rotate), "us", nq,
                       "p50 RotateQueryOnce"});
    metrics.push_back({"core.query_prepare_us", Median(layers.prepare), "us", nq,
                       "p50 per query, PrepareQueryFromRotated over the probe order"});
    metrics.push_back({"core.query_prepare_ns_per_list",
                       ns_per(layers.prepare, layers.lists_prepared), "ns",
                       layers.lists_prepared, "PrepareQueryFromRotated per list"});
    metrics.push_back({"core.scan_ns_per_code",
                       ns_per(layers.scan, layers.codes_scanned), "ns",
                       layers.codes_scanned,
                       "EstimateBlockFusedPruned over the probed lists"});
    metrics.push_back({"core.refine_ns_per_code",
                       ns_per(layers.refine, layers.codes_refined_replay), "ns",
                       layers.codes_refined_replay,
                       w.bits > 1 ? "multi-bit refine kernels per refined code"
                                  : "B=1: no multi-bit refine (0 codes)"});
    metrics.push_back({"core.eps0_violation_rate",
                       JsonNumber(collection_stats, "rabitq_eps0_violation_rate"),
                       "ratio",
                       static_cast<std::size_t>(JsonNumber(
                           collection_stats, "rabitq_rerank_health_samples_total")),
                       "server engine health gauge"});
    metrics.push_back({"quant.fastscan_ns_per_block",
                       ns_per(layers.fastscan, layers.blocks_scanned), "ns",
                       layers.blocks_scanned,
                       "FastScanAccumulateBlock over the probed lists"});
    metrics.push_back({"cluster.kmeans_s", layers.kmeans_s, "s", 1,
                       "RunKMeans at " + std::to_string(w.lists) + " lists"});
    // The untraced run's figure and the difference are added by run.py,
    // which has the same seed's --trace 0 record.
    metrics.push_back(PooledLatency("trace.search_p50_us", calm_open.search_us,
                                    0.5, "this traced run's search_p50_us"));
  }

  // ---- Generator self-check over the windows the figures come from
  // (run.py flags a run whose generator fell behind there as invalid, not
  // slow; windows it fell behind in are only reported when too few kept
  // the schedule). ----
  const std::vector<double>& lag = calm_open.gen_lag_us;
  const Percentile lag_p99 = SupportedPercentile(lag, 0.99);
  std::vector<double> window_steal;
  std::vector<double> on_schedule;
  std::vector<double> calm_flags(windows.size(), 0.0);
  std::vector<double> window_ops_per_s;
  std::vector<double> window_search_p50;
  for (const Window& cycle : windows) {
    window_steal.push_back(cycle.steal);
    on_schedule.push_back(cycle.on_schedule ? 1.0 : 0.0);
    window_ops_per_s.push_back(static_cast<double>(cycle.closed.ops_done) /
                               cycle.closed.seconds);
    window_search_p50.push_back(Median(cycle.open.search_us));
  }
  for (const std::size_t i : calm) calm_flags[i] = 1.0;

  std::ostringstream os;
  os << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"nproc\":" << nproc
     << ",\"connections\":" << workers << ",\"compiler\":\""
     << JsonEscape(PERFBENCH_COMPILER) << "\",\"compile_options\":\""
     << JsonEscape(PERFBENCH_COMPILE_OPTIONS) << "\",\"build_type\":\""
     << PERFBENCH_BUILD_TYPE << "\",\"attempted\":" << attempted
     << ",\"failed\":" << failed
     << ",\"gen_lag_p50_us\":" << JsonNum(Median(lag))
     << ",\"gen_lag_p99_us\":" << JsonNum(lag_p99.value)
     << ",\"gen_lag_samples\":" << lag_p99.n
     << ",\"late_sends\":" << calm_open.late_sends
     << ",\"backlogged_sends\":" << calm_open.backlogged
     << ",\"generator_ok\":" << (OnSchedule(calm_open) ? "true" : "false")
     << ",\"live_vectors_end\":" << live.live() << ",\"windows\":{"
     << "\"steal_share\":" << JsonArray(window_steal)
     << ",\"on_schedule\":" << JsonArray(on_schedule)
     << ",\"calm\":" << JsonArray(calm_flags)
     << ",\"ops_per_s\":" << JsonArray(window_ops_per_s)
     << ",\"search_p50_us\":" << JsonArray(window_search_p50) << "}"
     << ",\"gate\":{\"ok\":" << (gate.ok() ? "true" : "false")
     << ",\"checked\":" << gate.checked << ",\"mismatched\":" << gate.mismatched
     << ",\"first_mismatch\":\"" << JsonEscape(gate.first_mismatch)
     << "\",\"recall\":" << JsonNum(gate.recall)
     << ",\"recall_floor\":" << JsonNum(gate.recall_floor) << "},\"self_time_us\":{";
  bool first = true;
  for (const auto& [name, us] : self_time) {
    os << (first ? "" : ",") << "\"" << name << "\":" << JsonNum(us);
    first = false;
  }
  os << "},\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricOut& m = metrics[i];
    os << (i == 0 ? "" : ",") << "{\"name\":\"" << m.name
       << "\",\"value\":" << JsonNum(m.value) << ",\"unit\":\"" << m.unit
       << "\",\"n\":" << m.n << ",\"note\":\"" << JsonEscape(m.note) << "\"}";
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) perfbench::Fail("unexpected argument " + key);
    args.kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) perfbench::Fail("arguments come in --key value pairs");
  return perfbench::Run(args);
}
