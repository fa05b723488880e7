// Paper-pipeline benchmark: the Figure-8 Dublin replay in one process and on
// two loopback worker processes.
//
//   pipeline_bench --workload replay_local|replay_cluster|paced_local|
//                             paced_cluster|paced_cluster_32x
//                  --seed N --seconds S --trace 0|1 --run-dir DIR
//                  [--spans FILE] [--tasks K]
//
// Prints the set-up and per-layer tables, then one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes every span to
// --spans). The binary is also its own worker: the cluster supervisor
// re-execs it with the --insight-* role flags plus the arguments above.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check.h"
#include "core/system.h"
#include "dist/options.h"
#include "dist/runtime.h"
#include "dist/worker.h"
#include "dsps/local_runtime.h"
#include "net/wire.h"
#include "pipeline.h"
#include "probes.h"

namespace perfbench {
namespace {

namespace dsps = insight::dsps;
namespace dist = insight::dist;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;
  std::string spans_path;
  int tasks = 0;  // per program bolt; 0 = one per core
  std::vector<std::string> passthrough;  // re-sent to worker processes
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--insight-", 0) == 0) continue;
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    args->passthrough.push_back(flag);
    args->passthrough.push_back(value);
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--run-dir") {
      args->run_dir = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--tasks") {
      args->tasks = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return (args->workload == "replay_local" ||
          args->workload == "replay_cluster" ||
          args->workload == "paced_local" ||
          args->workload == "paced_cluster" ||
          args->workload == "paced_cluster_32x") &&
         !args->run_dir.empty() && args->seconds > 0 && args->tasks >= 0;
}

PipelineOptions OptionsFor(const Args& args) {
  PipelineOptions o;
  o.seed = args.seed;
  o.paced = args.workload.rfind("paced_", 0) == 0;
  if (args.workload == "paced_cluster_32x") o.compression = 32;
  o.run_seconds = args.seconds;
  // One Esper engine per core; one task for every other bolt, so each
  // Esper task's arrival order, and with it the detection set, is a
  // function of the input (see README.md "What runs").
  o.esper_tasks = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  if (args.tasks > 0) {
    o.preprocess_tasks = o.tracker_tasks = o.splitter_tasks = o.storer_tasks = args.tasks;
    o.esper_tasks = std::max(2, args.tasks);  // one engine per rule grouping
  }
  return o;
}

dsps::LocalRuntime::Options RuntimeOptions() {
  dsps::LocalRuntime::Options o;
  o.enable_acking = true;
  return o;
}

/// The detected_events rows this process's storer inserted.
std::vector<Detection> StoredDetections(Pipeline* p) {
  std::vector<Detection> out;
  auto rows = p->store.SelectAll(insight::traffic::EventsStorerBolt::kTableName);
  if (!rows.ok()) return out;
  for (const auto& row : rows->rows) {
    Detection d;
    d.rule = static_cast<int32_t>(
        std::find(p->rule_names->begin(), p->rule_names->end(),
                  row[0].AsString()) - p->rule_names->begin());
    d.location = row[2].AsInt();
    d.value = row[3].AsDouble();
    d.threshold = row[4].AsDouble();
    d.timestamp = row[5].AsInt();
    out.push_back(d);
  }
  return out;
}

/// Worker 0 hosts the generator and the enrichment stages; worker 1 the
/// splitter, the Esper engines and the storer (direct grouping cannot
/// cross workers), so the enriched stream crosses the wire.
dist::DistOptions ClusterOptions(const Args& args, Pipeline* p) {
  dist::DistOptions o;
  o.num_workers = 2;
  o.placement.worker_of = {{"busReader", 0},   {"preProcess", 0},
                           {"areaTracker", 0}, {"busStopsTracker", 0},
                           {"splitter", 1},    {"esper", 1},
                           {"eventsStorer", 1}};
  o.runtime = RuntimeOptions();
  // A worker says hello only after it has run the whole program set-up
  // (several seconds); the supervisor counts that silence against the
  // heartbeat timeout, so the default 2 s would restart every worker.
  o.heartbeat_timeout_micros = 60'000'000;
  o.worker_args = args.passthrough;
  const std::string run_dir = args.run_dir;
  o.on_worker_start = [run_dir, p](uint32_t worker_id, dsps::LocalRuntime*) {
    if (worker_id == 1) {
      // Tell worker 0's generator that the downstream half is prepared.
      const int bolts = p->options.splitter_tasks + p->options.esper_tasks +
                        p->options.storer_tasks;
      for (int i = 0; i < 60'000 && Recorder::Get().prepared() < bolts; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::FILE* f = std::fopen((run_dir + "/w1.ready").c_str(), "w");
      if (f != nullptr) std::fclose(f);
    }
    return std::function<void()>([run_dir, p, worker_id] {
      ProcessRecord record = Recorder::Get().Take();
      record.stored = StoredDetections(p);
      std::string path = run_dir + "/w" + std::to_string(worker_id) + ".rec";
      if (!record.WriteFile(path)) {
        std::fprintf(stderr, "worker %u: cannot write %s\n", worker_id,
                     path.c_str());
      }
    });
  };
  return o;
}

ProgramCounts CountsFrom(const insight::observability::MetricsSnapshot& snap) {
  ProgramCounts c;
  for (const auto& family : snap.counters) {
    for (const auto& sample : family.samples) {
      if (family.name == "insight_tuples_executed_total" &&
          sample.labels.find("component=\"esper\"") != std::string::npos) {
        c.esper_executed += static_cast<uint64_t>(sample.value);
      } else if (family.name == "insight_net_bytes_sent_total") {
        c.net_bytes_sent += sample.value;
      } else if (family.name == "insight_net_bytes_received_total") {
        c.net_bytes_received += sample.value;
      } else if (family.name == "insight_net_frames_sent_total") {
        c.net_frames_sent += sample.value;
      }
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile; `q` in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

/// Figures start this long after the first emission: the pipeline's queues
/// and the host's caches fill first.
constexpr int64_t kWarmupNs = 2'000'000'000;
/// Latency percentiles are taken per window of this many samples.
constexpr size_t kWindowSamples = 500;
/// Throughput is taken per window of this many completions.
constexpr size_t kThroughputWindow = 2000;

/// Latency percentile of a run: the median, over consecutive windows of
/// kWindowSamples samples (in due-time order, after the warm-up), of each
/// window's percentile. A host stall then moves the windows it falls in,
/// not the run's figure, and every window has five samples beyond its p99.
/// A run with no whole window falls back to all its samples.
double WindowedPercentile(std::vector<std::pair<int64_t, double>> samples,
                          int64_t from_ns, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  auto begin = std::lower_bound(samples.begin(), samples.end(),
                                std::pair<int64_t, double>{from_ns, -1e300});
  std::vector<double> per_window;
  std::vector<double> window;
  for (auto it = begin; it != samples.end(); ++it) {
    window.push_back(it->second);
    if (window.size() == kWindowSamples) {
      per_window.push_back(Percentile(window, q));
      window.clear();
    }
  }
  if (per_window.empty()) {
    window.clear();
    for (const auto& sample : samples) window.push_back(sample.second);
    return Percentile(window, q);
  }
  return Percentile(per_window, 0.5);
}

using DetKey = std::tuple<int, int64_t, int64_t>;

/// Everything joined per trace: the spout's entry, the Esper emissions that
/// a stored detection came from, and each trace's last bolt exit.
struct Joined {
  std::unordered_map<uint64_t, const SpoutEntry*> by_key;
  std::map<DetKey, const Detection*> emission;  // Esper side
  std::unordered_map<uint64_t, int64_t> last_exit;
  int64_t first_emit = 0;
  int64_t last_done = 0;
};

Joined Join(const ProcessRecord& r) {
  Joined j;
  j.by_key.reserve(r.spout.size());
  for (const SpoutEntry& e : r.spout) j.by_key[e.key] = &e;
  auto bump = [&j](uint64_t key, int64_t t) {
    int64_t& slot = j.last_exit[key];
    slot = std::max(slot, t);
  };
  for (const TaskLog& log : r.tasks) {
    if (log.stage != kEsper) continue;
    for (const EsperArrival& a : log.arrivals) bump(a.key, a.exit_ns);
    for (const Detection& d : log.detections) {
      j.emission[{d.rule, d.location, d.timestamp}] = &d;
    }
  }
  for (const TaskLog& log : r.tasks) {
    if (log.stage != kStorer) continue;
    for (const Detection& d : log.detections) {
      auto it = j.emission.find({d.rule, d.location, d.timestamp});
      if (it != j.emission.end()) bump(it->second->trigger_key, d.end_ns);
    }
  }
  j.first_emit = r.spout.empty() ? 0 : r.spout.front().emit_ns;
  for (const SpoutEntry& e : r.spout) {
    j.first_emit = std::min(j.first_emit, e.emit_ns);
    auto it = j.last_exit.find(e.key);
    int64_t done = std::max(e.ack_ns, it == j.last_exit.end() ? 0 : it->second);
    j.last_done = std::max(j.last_done, done);
  }
  return j;
}

/// A trace completes when its spout tree is acked and, on the cluster, when
/// the downstream worker's last bolt has finished with it.
int64_t Completion(const Joined& j, const SpoutEntry& e) {
  auto it = j.last_exit.find(e.key);
  return std::max(e.ack_ns, it == j.last_exit.end() ? 0 : it->second);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const ProcessRecord& r, const Joined& j,
                             int64_t process_start_ns) {
  std::vector<std::pair<int64_t, double>> trace_lat, det_lat;  // (due, us)
  uint64_t acked = 0;
  for (const SpoutEntry& e : r.spout) {
    if (e.ack_ns == 0) continue;
    ++acked;
    trace_lat.emplace_back(e.due_ns,
                           static_cast<double>(Completion(j, e) - e.due_ns) / 1e3);
  }
  for (const TaskLog& log : r.tasks) {
    if (log.stage != kStorer) continue;
    for (const Detection& d : log.detections) {
      auto em = j.emission.find({d.rule, d.location, d.timestamp});
      if (em == j.emission.end()) continue;
      auto sp = j.by_key.find(em->second->trigger_key);
      if (sp == j.by_key.end()) continue;
      det_lat.emplace_back(sp->second->due_ns,
                           static_cast<double>(d.end_ns - sp->second->due_ns) / 1e3);
    }
  }
  const double span_s = static_cast<double>(j.last_done - j.first_emit) / 1e9;
  std::vector<int> per_second(static_cast<size_t>(span_s) + 1, 0);
  std::vector<int64_t> done;
  for (const SpoutEntry& e : r.spout) {
    if (e.ack_ns == 0) continue;
    done.push_back(Completion(j, e));
    ++per_second[static_cast<size_t>((done.back() - j.first_emit) / 1'000'000'000)];
  }
  std::printf("completions per second:");
  for (int c : per_second) std::printf(" %d", c);
  std::printf("\n");
  // Throughput: the median, over windows of kThroughputWindow consecutive
  // completions after the warm-up, of completions / the time they took. A
  // run without three such windows falls back to acked / span.
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  auto at = std::lower_bound(done.begin(), done.end(), j.first_emit + kWarmupNs);
  for (size_t i = static_cast<size_t>(at - done.begin());
       i + kThroughputWindow < done.size(); i += kThroughputWindow) {
    const int64_t took = done[i + kThroughputWindow] - done[i];
    if (took > 0) rates.push_back(kThroughputWindow * 1e9 / static_cast<double>(took));
  }
  const double throughput =
      rates.size() >= 3 ? Percentile(rates, 0.5)
                        : (span_s > 0 ? static_cast<double>(acked) / span_s : 0);
  const int64_t from = j.first_emit + kWarmupNs;
  return {
      {"setup_s", static_cast<double>(j.first_emit - process_start_ns) / 1e9, "s"},
      {"throughput_traces_per_s", throughput, "traces/s"},
      {"trace_latency_p50_us", WindowedPercentile(trace_lat, from, 0.50), "us"},
      {"trace_latency_p99_us", WindowedPercentile(trace_lat, from, 0.99), "us"},
      {"detection_latency_p50_us", WindowedPercentile(det_lat, from, 0.50), "us"},
      {"detection_latency_p99_us", WindowedPercentile(det_lat, from, 0.99), "us"},
      {"peak_rss_mb", static_cast<double>(r.peak_rss_kb) / 1024.0, "MB"},
  };
}

// ---------------------------------------------------------------------------
// Per-layer metrics and spans (traced runs)
// ---------------------------------------------------------------------------

/// Times EncodeTupleBatch/DecodeTupleBatch on the run's enriched tuples, cut
/// into frames of the egress batch size.
void CodecCost(const Pipeline& p, double* encode_ns, double* decode_ns) {
  std::vector<insight::traffic::BusTrace> traces = p.load->traces;
  insight::core::EnrichTraces(&traces, *p.quadtree, *p.stops);
  std::vector<insight::net::TupleBatch> batches;
  insight::net::TupleBatchBuilder builder("busStopsTracker", 0);
  for (const auto& trace : traces) {
    auto payload = std::make_shared<const std::vector<insight::cep::Value>>(
        insight::traffic::TraceToEnrichedValues(trace));
    builder.Add(payload, 1, 0);
    if (builder.tuple_count() == 64) batches.push_back(builder.Take(batches.size()));
  }
  if (batches.empty()) return;
  std::vector<std::string> encoded(batches.size());
  const double tuples = 64.0 * static_cast<double>(batches.size());
  int64_t start = NowNs();
  for (size_t i = 0; i < batches.size(); ++i) {
    insight::net::EncodeTupleBatch(batches[i], &encoded[i]);
  }
  *encode_ns = static_cast<double>(NowNs() - start) / tuples;
  start = NowNs();
  for (const std::string& bytes : encoded) {
    insight::net::TupleBatch out;
    if (!insight::net::DecodeTupleBatch(bytes, &out).ok()) std::abort();
  }
  *decode_ns = static_cast<double>(NowNs() - start) / tuples;
}

struct LayerRow {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Total length of the union of intervals, clipped to [lo, hi].
double Covered(std::vector<std::pair<int64_t, int64_t>>* iv, int64_t lo, int64_t hi) {
  std::sort(iv->begin(), iv->end());
  double covered = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : *iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_hi - cur_lo);
  return covered;
}

std::vector<Metric> PerLayer(const Pipeline& p, const ProcessRecord& r,
                             const Joined& j, const ProgramCounts& counts,
                             bool cluster, int64_t process_start_ns,
                             int64_t spawn_start_ns, const std::string& spans_path) {
  std::vector<Metric> out;
  // Busy time per executed tuple, per stage.
  uint64_t executed[kNumStages] = {};
  int64_t busy[kNumStages] = {};
  for (const TaskLog& log : r.tasks) {
    executed[log.stage] += log.executed;
    busy[log.stage] += log.busy_ns;
  }
  auto per = [&](Stage s) {
    return executed[s] ? static_cast<double>(busy[s]) / static_cast<double>(executed[s]) : 0;
  };
  double late_us_p99 = 0;
  {
    std::vector<double> late;
    for (const SpoutEntry& e : r.spout) late.push_back(static_cast<double>(e.emit_ns - e.due_ns) / 1e3);
    late_us_p99 = Percentile(late, 0.99);
  }
  auto step_s = [&](const char* name) {
    for (const SetupStep& s : p.steps) {
      if (s.name == name) return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
    return 0.0;
  };
  double preload_s = 0;
  for (const ExecSpan& s : r.preloads) preload_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;

  // Per-stage spans by trace key (each key runs once through the stages
  // before the splitter; Esper runs it once per rule grouping).
  std::unordered_map<uint64_t, ExecSpan> stage_span[kNumStages];
  for (const TaskLog& log : r.tasks) {
    if (log.stage == kEsper || log.stage == kStorer) continue;
    for (const ExecSpan& s : log.spans) stage_span[log.stage][s.key] = s;
  }
  std::map<std::string, std::vector<double>> hops;
  auto hop = [&](const char* edge, int64_t from_end, int64_t to_start) {
    hops[edge].push_back(static_cast<double>(to_start - from_end) / 1e3);
  };
  const Stage chain[] = {kPreprocess, kArea, kStops, kSplitter};
  const char* chain_edges[] = {"preprocess-area", "area-stops", "stops-splitter"};
  for (const SpoutEntry& e : r.spout) {
    auto pre = stage_span[kPreprocess].find(e.key);
    if (pre == stage_span[kPreprocess].end()) continue;
    hop("reader-preprocess", e.emit_ns, pre->second.start_ns);
    for (int i = 0; i < 3; ++i) {
      auto a = stage_span[chain[i]].find(e.key);
      auto b = stage_span[chain[i + 1]].find(e.key);
      if (a != stage_span[chain[i]].end() && b != stage_span[chain[i + 1]].end()) {
        hop(chain_edges[i], a->second.end_ns, b->second.start_ns);
      }
    }
  }
  for (const TaskLog& log : r.tasks) {
    if (log.stage == kEsper) {
      for (const ExecSpan& s : log.spans) {
        auto sp = stage_span[kSplitter].find(s.key);
        if (sp != stage_span[kSplitter].end()) hop("splitter-esper", sp->second.end_ns, s.start_ns);
      }
    } else if (log.stage == kStorer) {
      for (const Detection& d : log.detections) {
        auto em = j.emission.find({d.rule, d.location, d.timestamp});
        if (em != j.emission.end()) hop("esper-storer", em->second->end_ns, d.start_ns);
      }
    }
  }
  // Ack delay: the spout's Ack after the last bolt exit in its own process.
  std::unordered_map<uint64_t, int64_t> local_exit;
  for (const TaskLog& log : r.tasks) {
    const bool colocated = !cluster || log.stage <= kStops;
    if (!colocated) continue;
    if (log.stage == kStorer) {
      for (const Detection& d : log.detections) {
        auto em = j.emission.find({d.rule, d.location, d.timestamp});
        if (em == j.emission.end()) continue;
        int64_t& slot = local_exit[em->second->trigger_key];
        slot = std::max(slot, d.end_ns);
      }
      continue;
    }
    for (const ExecSpan& s : log.spans) {
      int64_t& slot = local_exit[s.key];
      slot = std::max(slot, s.end_ns);
    }
  }
  std::vector<double> ack_delay;
  for (const SpoutEntry& e : r.spout) {
    auto it = local_exit.find(e.key);
    if (e.ack_ns > 0 && it != local_exit.end()) {
      ack_delay.push_back(static_cast<double>(e.ack_ns - it->second) / 1e3);
    }
  }

  double encode_ns = 0, decode_ns = 0;
  CodecCost(p, &encode_ns, &decode_ns);
  const double n = std::max<double>(1.0, static_cast<double>(r.spout.size()));
  uint64_t stored = r.stored.size();

  out = {
      {"traffic.preprocess.busy_ns_per_tuple", per(kPreprocess), "ns/tuple"},
      {"traffic.generator.late_us_p99", late_us_p99, "us"},
      {"geo.area_tracker.busy_ns_per_tuple", per(kArea), "ns/tuple"},
      {"geo.stops_tracker.busy_ns_per_tuple", per(kStops), "ns/tuple"},
      {"setup.geo.quadtree_s", step_s("setup.geo.quadtree"), "s"},
      {"setup.geo.bus_stops_s", step_s("setup.geo.bus_stops"), "s"},
      {"core.splitter.busy_ns_per_tuple", per(kSplitter), "ns/tuple"},
      {"setup.core.allocate_s", step_s("setup.core.allocate"), "s"},
      {"cep.esper.busy_ns_per_tuple", per(kEsper), "ns/tuple"},
      {"cep.detections_per_ktrace", static_cast<double>(stored) * 1000.0 / n, "det/ktrace"},
      {"setup.cep.preload_s", preload_s, "s"},
      {"storage.storer.busy_ns_per_detection", per(kStorer), "ns/detection"},
      {"setup.dfs.append_s", step_s("setup.dfs.append"), "s"},
      {"setup.batch.cycle_s", step_s("setup.batch.cycle"), "s"},
  };
  for (const char* edge : {"reader-preprocess", "preprocess-area", "area-stops",
                           "stops-splitter", "splitter-esper", "esper-storer"}) {
    const auto& v = hops[edge];
    out.push_back({std::string("dsps.hop.") + edge + ".wait_us_p50", Percentile(v, 0.5), "us"});
    out.push_back({std::string("dsps.hop.") + edge + ".wait_us_p99", Percentile(v, 0.99), "us"});
  }
  out.push_back({"reliability.ack_delay_us_p50", Percentile(ack_delay, 0.5), "us"});
  out.push_back({"reliability.ack_delay_us_p99", Percentile(ack_delay, 0.99), "us"});
  out.push_back({"net.bytes_per_trace", counts.net_bytes_sent / n, "B/trace"});
  out.push_back({"net.frames_per_trace", counts.net_frames_sent / n, "frames/trace"});
  out.push_back({"net.encode_ns_per_tuple", encode_ns, "ns/tuple"});
  out.push_back({"net.decode_ns_per_tuple", decode_ns, "ns/tuple"});
  out.push_back({"setup.dist.spawn_s",
                 cluster ? static_cast<double>(r.spout_open_ns - spawn_start_ns) / 1e9 : 0.0,
                 "s"});

  // Spans: one root per trace (due -> completion) over its bolt spans, and
  // one set-up root over the timed set-up calls. Self time = duration minus
  // what child spans cover.
  std::map<std::string, LayerRow> table;
  std::FILE* f = spans_path.empty() ? nullptr : std::fopen(spans_path.c_str(), "w");
  uint64_t next_id = 1;
  auto emit = [&](uint64_t trace, uint64_t id, uint64_t parent, const std::string& name,
                  int64_t a, int64_t b, double self) {
    LayerRow& row = table[name];
    ++row.count;
    row.total_ns += static_cast<double>(b - a);
    row.self_ns += self;
    if (f != nullptr) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(trace),
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(parent), name.c_str(),
                   static_cast<long long>(a), static_cast<long long>(b));
    }
  };
  if (f != nullptr) std::fprintf(f, "trace\tspan\tparent\tname\tstart_ns\tend_ns\n");
  {
    const uint64_t root = next_id++;
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (const SetupStep& s : p.steps) kids.emplace_back(s.start_ns, s.end_ns);
    if (cluster) kids.emplace_back(spawn_start_ns, r.spout_open_ns);
    std::vector<std::pair<int64_t, int64_t>> cover = kids;
    emit(0, root, 0, "setup", process_start_ns, j.first_emit,
         static_cast<double>(j.first_emit - process_start_ns) -
             Covered(&cover, process_start_ns, j.first_emit));
    for (const SetupStep& s : p.steps) {
      emit(0, next_id++, root, s.name, s.start_ns, s.end_ns,
           static_cast<double>(s.end_ns - s.start_ns));
    }
    if (cluster) {
      emit(0, next_id++, root, "setup.dist.spawn", spawn_start_ns, r.spout_open_ns,
           static_cast<double>(r.spout_open_ns - spawn_start_ns));
    }
    for (const ExecSpan& s : r.preloads) {
      emit(0, next_id++, root, "setup.cep.preload", s.start_ns, s.end_ns,
           static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  std::unordered_map<uint64_t, std::vector<std::pair<int, ExecSpan>>> per_trace;
  for (const TaskLog& log : r.tasks) {
    if (log.stage == kStorer) {
      for (const Detection& d : log.detections) {
        auto em = j.emission.find({d.rule, d.location, d.timestamp});
        if (em == j.emission.end()) continue;
        per_trace[em->second->trigger_key].push_back(
            {kStorer, {em->second->trigger_key, d.start_ns, d.end_ns}});
      }
      continue;
    }
    for (const ExecSpan& s : log.spans) per_trace[s.key].push_back({log.stage, s});
  }
  for (const SpoutEntry& e : r.spout) {
    const uint64_t root = next_id++;
    const int64_t done = Completion(j, e);
    auto it = per_trace.find(e.key);
    std::vector<std::pair<int64_t, int64_t>> cover;
    if (it != per_trace.end()) {
      for (const auto& [stage, s] : it->second) cover.emplace_back(s.start_ns, s.end_ns);
    }
    emit(e.key, root, 0, "trace", e.due_ns, done,
         static_cast<double>(done - e.due_ns) - Covered(&cover, e.due_ns, done));
    if (it == per_trace.end()) continue;
    for (const auto& [stage, s] : it->second) {
      emit(e.key, next_id++, root,
           std::string(StageLayer(static_cast<Stage>(stage))) + "." +
               StageComponent(static_cast<Stage>(stage)),
           s.start_ns, s.end_ns, static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  if (f != nullptr) std::fclose(f);

  std::printf("\nper-layer spans (self = duration minus child spans)\n");
  std::printf("  %-28s %10s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "mean_us");
  for (const auto& [name, row] : table) {
    std::printf("  %-28s %10llu %12.2f %12.2f %10.2f\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ns / 1e6,
                row.self_ns / 1e6, row.total_ns / 1e3 / static_cast<double>(row.count));
  }
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  const int64_t process_start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload replay_local|replay_cluster|"
                 "paced_local|paced_cluster|paced_cluster_32x --seed N --seconds S --trace 0|1 --run-dir DIR "
                 "[--spans FILE] [--tasks K]\n");
    return 2;
  }
  Recorder::Get().set_traced(args.trace);
  const bool cluster = args.workload == "replay_cluster" ||
                       args.workload == "paced_cluster" ||
                       args.workload == "paced_cluster_32x";
  Pipeline pipeline;
  insight::Status status = BuildPipeline(OptionsFor(args), &pipeline);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 2;
  }
  // The generator's process hosts the first three bolts on the cluster and
  // all six locally; on the cluster it also waits for worker 1.
  const PipelineOptions& o = pipeline.options;
  const int local_bolts = o.preprocess_tasks + 2 * o.tracker_tasks +
                          (cluster ? 0 : o.splitter_tasks + o.esper_tasks + o.storer_tasks);
  const std::string ready_file = cluster ? args.run_dir + "/w1.ready" : "";
  pipeline.load->ready = [local_bolts, ready_file] {
    return Recorder::Get().prepared() >= local_bolts &&
           (ready_file.empty() || ::access(ready_file.c_str(), F_OK) == 0);
  };
  auto topology = BuildTopology(&pipeline);
  if (!topology.ok()) {
    std::fprintf(stderr, "topology: %s\n", topology.status().ToString().c_str());
    return 2;
  }

  dist::WorkerSpec spec;
  if (dist::ParseWorkerSpec(argc, argv, &spec)) {
    return dist::RunWorker(spec, std::move(*topology),
                           ClusterOptions(args, &pipeline));
  }

  ProcessRecord record;
  ProgramCounts counts;
  int64_t spawn_start_ns = 0;
  if (!cluster) {
    dsps::LocalRuntime runtime(std::move(*topology), RuntimeOptions());
    status = runtime.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
      return 2;
    }
    runtime.AwaitCompletion();
    counts = CountsFrom(runtime.metrics()->PrometheusSnapshot());
    record = Recorder::Get().Take();
    record.stored = StoredDetections(&pipeline);
  } else {
    dist::DistributedRuntime runtime(std::move(*topology),
                                     ClusterOptions(args, &pipeline));
    spawn_start_ns = NowNs();
    status = runtime.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
      return 2;
    }
    if (runtime.WaitForCompletion(150'000'000) != 0) {
      std::fprintf(stderr, "cluster run failed\n");
      return 2;
    }
    counts = CountsFrom(runtime.ClusterMetrics());
    record = Recorder::Get().Take();
    for (int w = 0; w < 2; ++w) {
      ProcessRecord worker;
      std::string path = args.run_dir + "/w" + std::to_string(w) + ".rec";
      if (!worker.ReadFile(path)) {
        std::fprintf(stderr, "cannot read worker record %s\n", path.c_str());
        return 2;
      }
      record.Merge(std::move(worker));
    }
  }

  std::printf("set-up steps (supervisor process)\n");
  for (const SetupStep& s : pipeline.steps) {
    std::printf("  %-24s %8.3f s\n", s.name.c_str(),
                static_cast<double>(s.end_ns - s.start_ns) / 1e9);
  }
  std::printf("input: %zu traces x %d round(s), history %zu traces, %zu "
              "canonical stops, %zu rule groupings, engines per grouping:",
              pipeline.load->traces.size(), pipeline.load->rounds,
              pipeline.history.size(), pipeline.stops->stops().size(),
              pipeline.groupings.size());
  for (int e : pipeline.engines_per_grouping) std::printf(" %d", e);
  int statements = 0, incremental = 0;
  for (const TaskLog& log : record.tasks) {
    statements += log.statements;
    incremental += log.incremental;
  }
  std::printf("\nListing-1 statements: %d, on the incremental-aggregation plan: "
              "%d (the rest recompute their aggregates on every event)\n",
              statements, incremental);

  CheckReport check = CheckRun(pipeline, record, counts, cluster);
  std::printf("checks: fed N=%llu, vehicles V=%llu, stored %llu detections, "
              "reference %llu, ties %llu: %s\n",
              static_cast<unsigned long long>(check.fed),
              static_cast<unsigned long long>(check.vehicles),
              static_cast<unsigned long long>(check.stored_detections),
              static_cast<unsigned long long>(check.reference_detections),
              static_cast<unsigned long long>(check.ties),
              check.ok ? "pass" : "FAIL");
  for (const std::string& why : check.failures) std::printf("  FAIL %s\n", why.c_str());
  if (cluster) {
    std::printf("net byte audit: %s: %s\n", check.net_audit.c_str(),
                check.net_audit_ok ? "pass" : "FAIL (counted as a failed operation)");
  }

  // Operations: every trace, plus the byte audit on the cluster.
  uint64_t attempted = record.spout.size() + (cluster ? 1 : 0);
  uint64_t failed = cluster && !check.net_audit_ok ? 1 : 0;
  for (const SpoutEntry& e : record.spout) failed += e.ack_ns == 0 ? 1 : 0;
  Joined joined = Join(record);
  const std::vector<Metric> end_to_end = EndToEnd(record, joined, process_start_ns);
  std::vector<Metric> per_layer;
  if (args.trace) {
    per_layer = PerLayer(pipeline, record, joined, counts, cluster, process_start_ns,
                         spawn_start_ns, args.spans_path);
  }
  std::printf("provenance {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"cores\": %u, \"seed\": %llu, \"workload\": \"%s\", "
              "\"tasks\": \"pre %d, trackers %d, splitter %d, esper %d, storer %d\"}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(args.seed), args.workload.c_str(),
              o.preprocess_tasks, o.tracker_tasks, o.splitter_tasks, o.esper_tasks,
              o.storer_tasks);
  std::printf("end_to_end ");
  PrintMetrics(end_to_end);
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              check.ok ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(args.trace ? per_layer : end_to_end);
  std::printf("}\n");
  return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
