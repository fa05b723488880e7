#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>

#include "traffic/bolts.h"

namespace perfbench {

using insight::dsps::Collector;
using insight::dsps::Tuple;
using insight::dsps::Value;

int64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

uint64_t TraceKey(int64_t vehicle, int64_t timestamp_micros) {
  return (static_cast<uint64_t>(vehicle) << 44) |
         (static_cast<uint64_t>(timestamp_micros) & ((uint64_t{1} << 44) - 1));
}

const char* StageComponent(Stage stage) {
  static const char* kNames[] = {"preProcess", "areaTracker", "busStopsTracker",
                                 "splitter",   "esper",       "eventsStorer"};
  return kNames[stage];
}

const char* StageLayer(Stage stage) {
  static const char* kLayers[] = {"traffic", "geo", "geo",
                                  "core",    "cep", "storage"};
  return kLayers[stage];
}

int64_t PeakRssKb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Recorder and its file format
// ---------------------------------------------------------------------------

Recorder& Recorder::Get() {
  static Recorder* recorder = new Recorder();
  return *recorder;
}

TaskLog* Recorder::NewTaskLog(int stage, int task) {
  auto log = std::make_unique<TaskLog>();
  log->stage = stage;
  log->task = task;
  TaskLog* raw = log.get();
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::move(log));
  return raw;
}

void Recorder::AddPreload(const ExecSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  record_.preloads.push_back(span);
}

ProcessRecord Recorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  ProcessRecord out = std::move(record_);
  record_ = ProcessRecord();
  for (auto& log : logs_) out.tasks.push_back(std::move(*log));
  logs_.clear();
  out.peak_rss_kb = PeakRssKb();
  return out;
}

void ProcessRecord::Merge(ProcessRecord other) {
  if (spout.empty()) {
    spout = std::move(other.spout);
    spout_open_ns = other.spout_open_ns;
  }
  for (TaskLog& log : other.tasks) tasks.push_back(std::move(log));
  preloads.insert(preloads.end(), other.preloads.begin(),
                  other.preloads.end());
  stored.insert(stored.end(), other.stored.begin(), other.stored.end());
  peak_rss_kb += other.peak_rss_kb;
}

namespace {

// Records hold only trivially copyable structs, so the file is a sequence
// of (count, raw array) blocks. It never leaves the machine that wrote it.
template <typename T>
void PutVec(std::FILE* f, const std::vector<T>& v) {
  uint64_t n = v.size();
  std::fwrite(&n, sizeof(n), 1, f);
  if (n > 0) std::fwrite(v.data(), sizeof(T), v.size(), f);
}

template <typename T>
bool GetVec(std::FILE* f, std::vector<T>* v) {
  uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > (uint64_t{1} << 32)) {
    return false;
  }
  v->resize(n);
  return n == 0 || std::fread(v->data(), sizeof(T), n, f) == n;
}

template <typename T>
void Put(std::FILE* f, const T& x) {
  std::fwrite(&x, sizeof(T), 1, f);
}

template <typename T>
bool Get(std::FILE* f, T* x) {
  return std::fread(x, sizeof(T), 1, f) == 1;
}

}  // namespace

bool ProcessRecord::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  PutVec(f, spout);
  Put(f, spout_open_ns);
  Put(f, static_cast<uint64_t>(tasks.size()));
  for (const TaskLog& log : tasks) {
    Put(f, log.stage);
    Put(f, log.task);
    Put(f, log.executed);
    Put(f, log.busy_ns);
    Put(f, log.prepare_ns);
    Put(f, log.statements);
    Put(f, log.incremental);
    PutVec(f, log.spans);
    PutVec(f, log.arrivals);
    PutVec(f, log.detections);
  }
  PutVec(f, preloads);
  PutVec(f, stored);
  Put(f, peak_rss_kb);
  bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

bool ProcessRecord::ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t num_tasks = 0;
  bool ok = GetVec(f, &spout) && Get(f, &spout_open_ns) && Get(f, &num_tasks) &&
            num_tasks < 4096;
  for (uint64_t i = 0; ok && i < num_tasks; ++i) {
    TaskLog log;
    ok = Get(f, &log.stage) && Get(f, &log.task) && Get(f, &log.executed) &&
         Get(f, &log.busy_ns) && Get(f, &log.prepare_ns) &&
         Get(f, &log.statements) && Get(f, &log.incremental) &&
         GetVec(f, &log.spans) && GetVec(f, &log.arrivals) &&
         GetVec(f, &log.detections) && log.stage >= 0 &&
         log.stage < kNumStages;
    if (ok) tasks.push_back(std::move(log));
  }
  ok = ok && GetVec(f, &preloads) && GetVec(f, &stored) &&
       Get(f, &peak_rss_kb);
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Load and LoadSpout
// ---------------------------------------------------------------------------

insight::traffic::BusTrace Load::TraceAt(size_t index) const {
  size_t round = index / traces.size();
  insight::traffic::BusTrace trace = traces[index % traces.size()];
  trace.vehicle_id += static_cast<int>(round_vehicle_offset * static_cast<int64_t>(round));
  trace.timestamp += round_time_offset * static_cast<int64_t>(round);
  return trace;
}

void LoadSpout::Open(const insight::dsps::TaskContext& /*context*/) {
  entries_ = Recorder::Get().spout_log();
  entries_->reserve(load_->traces.size() * static_cast<size_t>(load_->rounds));
  Recorder::Get().set_spout_open(NowNs());
}

bool LoadSpout::NextTuple(Collector* collector) {
  const Load& load = *load_;
  const size_t round_size = load.traces.size();
  if (!started_) {
    if (load.ready && !load.ready()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return true;
    }
    started_ = true;
  }
  int64_t now = NowNs();
  if (load.paced) {
    if (next_ >= round_size) return false;
    if (start_ns_ == 0) start_ns_ = now;
    const int64_t due = start_ns_ + load.due_offset_ns[next_];
    if (now < due) {
      // Short naps keep Ack callbacks (delivered on this thread between
      // NextTuple calls) flowing while the schedule waits.
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(due - now, 100'000)));
      return true;
    }
    Emit(collector, due);
    return next_ < round_size;
  }
  // Closed loop: at most max_pending traces in flight.
  const size_t total = round_size * static_cast<size_t>(load.rounds);
  if (next_ >= total) return false;
  if (next_ - resolved_ >= load.max_pending) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return true;
  }
  Emit(collector, now);
  return next_ < total;
}

void LoadSpout::Emit(Collector* collector, int64_t due_ns) {
  insight::traffic::BusTrace trace = load_->TraceAt(next_);
  SpoutEntry entry;
  entry.key = TraceKey(trace.vehicle_id, trace.timestamp);
  entry.due_ns = due_ns;
  entry.emit_ns = NowNs();
  entries_->push_back(entry);
  ++next_;
  collector->EmitRooted(next_, insight::traffic::TraceToRawValues(trace));
}

void LoadSpout::Ack(uint64_t message_id) {
  (*entries_)[message_id - 1].ack_ns = NowNs();
  ++resolved_;
}

void LoadSpout::Fail(uint64_t message_id) {
  (*entries_)[message_id - 1].failed = 1;
  ++resolved_;
}

// ---------------------------------------------------------------------------
// Bolt decorators
// ---------------------------------------------------------------------------

/// Collector passed to the wrapped Esper bolt: records each detection it
/// emits (tagged with the trace being executed) and forwards everything.
class TimedBolt::Tap : public Collector {
 public:
  Tap(TimedBolt* owner, Collector* inner) : owner_(owner), inner_(inner) {}
  void set_inner(Collector* inner) { inner_ = inner; }

  void Emit(std::vector<Value> values) override {
    Record(values);
    inner_->Emit(std::move(values));
  }
  void EmitDirect(int task_index, std::vector<Value> values) override {
    inner_->EmitDirect(task_index, std::move(values));
  }
  void EmitMove(std::vector<Value> values) override {
    Record(values);
    inner_->EmitMove(std::move(values));
  }

 private:
  void Record(const std::vector<Value>& values) {
    Detection d;
    const std::string& rule = values[0].AsString();
    const auto& names = *owner_->rule_names_;
    d.rule = static_cast<int32_t>(
        std::find(names.begin(), names.end(), rule) - names.begin());
    d.task = owner_->log_->task;
    d.location = values[2].AsInt();
    d.value = values[3].AsDouble();
    d.threshold = values[4].AsDouble();
    d.timestamp = values[5].AsInt();
    d.trigger_key = owner_->current_key_;
    owner_->log_->detections.push_back(d);
  }

  TimedBolt* owner_;
  Collector* inner_;
};

TimedBolt::TimedBolt(std::unique_ptr<insight::dsps::Bolt> inner, Stage stage,
                     std::shared_ptr<const std::vector<std::string>> rule_names)
    : inner_(std::move(inner)),
      stage_(stage),
      rule_names_(std::move(rule_names)) {}

void TimedBolt::Prepare(const insight::dsps::TaskContext& context) {
  log_ = Recorder::Get().NewTaskLog(stage_, context.task_index);
  if (stage_ == kEsper) tap_ = std::make_unique<Tap>(this, nullptr);
  int64_t start = NowNs();
  inner_->Prepare(context);
  log_->prepare_ns = NowNs() - start;
  if (auto* esper = dynamic_cast<insight::traffic::EsperBolt*>(inner_.get())) {
    for (const std::string& name : *rule_names_) {
      auto stmt = esper->engine()->GetStatement(name);
      if (!stmt.ok()) continue;
      ++log_->statements;
      log_->incremental += (*stmt)->incremental() ? 1 : 0;
    }
  }
  Recorder::Get().MarkPrepared();
}

void TimedBolt::Before(const Tuple& input) {
  if (stage_ != kStorer) {
    current_key_ = TraceKey(input.Get(8).AsInt(), input.Get(0).AsInt());
  }
}

void TimedBolt::After(const Tuple& input, int64_t start_ns, int64_t end_ns) {
  ++log_->executed;
  log_->busy_ns += end_ns - start_ns;
  if (stage_ == kStorer) {
    const std::vector<Value>& v = input.values();
    Detection d;
    const auto& names = *rule_names_;
    d.rule = static_cast<int32_t>(
        std::find(names.begin(), names.end(), v[0].AsString()) - names.begin());
    d.location = v[2].AsInt();
    d.value = v[3].AsDouble();
    d.threshold = v[4].AsDouble();
    d.timestamp = v[5].AsInt();
    d.start_ns = start_ns;
    d.end_ns = end_ns;
    log_->detections.push_back(d);
    return;
  }
  if (Recorder::Get().traced()) {
    log_->spans.push_back({current_key_, start_ns, end_ns});
  }
  if (stage_ == kEsper) {
    const std::vector<Value>& v = input.values();
    EsperArrival a;
    a.key = current_key_;
    a.timestamp = v[0].AsInt();
    a.delay = v[5].AsDouble();
    a.congestion = v[6].AsDouble();
    a.speed = v[9].AsDouble();
    a.actual_delay = v[10].AsDouble();
    a.hour = static_cast<int32_t>(v[11].AsInt());
    a.weekend = v[12].AsString() == "weekend";
    a.area_leaf = v[13].AsInt();
    a.bus_stop = v[14].AsInt();
    a.exit_ns = end_ns;
    log_->arrivals.push_back(a);
    for (auto it = log_->detections.rbegin();
         it != log_->detections.rend() && it->end_ns == 0; ++it) {
      it->end_ns = end_ns;
    }
  }
}

void TimedBolt::Execute(const Tuple& input, Collector* collector) {
  Before(input);
  Collector* out = collector;
  if (tap_ != nullptr) {
    tap_->set_inner(collector);
    out = tap_.get();
  }
  int64_t start = NowNs();
  inner_->Execute(input, out);
  After(input, start, NowNs());
}

void TimedBolt::ExecuteBatch(const Tuple* inputs, size_t count,
                             Collector* collector) {
  // One timed call; its time is shared out evenly over the block. Esper's
  // block detections are attributed to the block's last tuple.
  if (count == 0) return;
  Before(inputs[count - 1]);
  Collector* out = collector;
  if (tap_ != nullptr) {
    tap_->set_inner(collector);
    out = tap_.get();
  }
  int64_t start = NowNs();
  inner_->ExecuteBatch(inputs, count, out);
  int64_t end = NowNs();
  int64_t share = (end - start) / static_cast<int64_t>(count);
  for (size_t i = 0; i < count; ++i) {
    Before(inputs[i]);
    int64_t s = start + share * static_cast<int64_t>(i);
    After(inputs[i], s, i + 1 == count ? end : s + share);
  }
}

TimedSnapshottableBolt::TimedSnapshottableBolt(
    std::unique_ptr<insight::dsps::Bolt> inner, Stage stage,
    std::shared_ptr<const std::vector<std::string>> rules)
    : TimedBolt(std::move(inner), stage, std::move(rules)),
      snapshot_(dynamic_cast<insight::dsps::Snapshottable*>(inner_.get())) {}

insight::Status TimedSnapshottableBolt::SnapshotState(std::string* out) const {
  return snapshot_->SnapshotState(out);
}

insight::Status TimedSnapshottableBolt::RestoreState(const std::string& bytes) {
  return snapshot_->RestoreState(bytes);
}

std::unique_ptr<insight::dsps::Bolt> Wrap(
    std::unique_ptr<insight::dsps::Bolt> inner, Stage stage,
    std::shared_ptr<const std::vector<std::string>> rule_names) {
  if (dynamic_cast<insight::dsps::Snapshottable*>(inner.get()) != nullptr) {
    return std::make_unique<TimedSnapshottableBolt>(std::move(inner), stage,
                                                    std::move(rule_names));
  }
  return std::make_unique<TimedBolt>(std::move(inner), stage,
                                     std::move(rule_names));
}

}  // namespace perfbench
