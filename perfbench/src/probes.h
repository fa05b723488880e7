// Measurement probes of the paper-pipeline benchmark: the load-generating
// spout, the decorator wrapped around every program bolt, and the
// per-process record they write into.
//
// Every time is CLOCK_MONOTONIC in nanoseconds, which is machine-wide, so
// records taken in different worker processes compare directly. Hot-path
// records go to per-task logs owned by one executor thread each; the
// registry mutex is taken only when a task registers its log.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsps/topology.h"
#include "traffic/trace.h"

namespace perfbench {

int64_t NowNs();

/// A trace is keyed by vehicle and timestamp: 20 bits of vehicle id, 44 bits
/// of timestamp (microseconds; rounds shift by whole days, see Load).
uint64_t TraceKey(int64_t vehicle, int64_t timestamp_micros);

/// Program bolts of the Figure-8 topology, in pipeline order.
enum Stage : int {
  kPreprocess = 0,
  kArea,
  kStops,
  kSplitter,
  kEsper,
  kStorer,
  kNumStages
};
const char* StageComponent(Stage stage);  // topology component name
const char* StageLayer(Stage stage);      // program layer owning the bolt

/// One Execute (or one tuple of an ExecuteBatch) of a wrapped bolt.
struct ExecSpan {
  uint64_t key = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What an Esper task saw, in arrival order: the reference detector replays
/// exactly this sequence.
struct EsperArrival {
  uint64_t key = 0;
  int64_t timestamp = 0;
  int64_t area_leaf = 0;
  int64_t bus_stop = 0;
  int32_t hour = 0;
  int32_t weekend = 0;
  double delay = 0;
  double actual_delay = 0;
  double speed = 0;
  double congestion = 0;
  int64_t exit_ns = 0;
};

/// A detection tuple as emitted by an Esper task or stored by the storer.
struct Detection {
  int32_t rule = -1;  // index into the run's rule list
  int32_t task = -1;  // emitting Esper task (-1 when read back from storage)
  int64_t location = 0;
  int64_t timestamp = 0;
  double value = 0;
  double threshold = 0;
  uint64_t trigger_key = 0;  // key of the trace being executed (emissions)
  int64_t start_ns = 0;      // storer: Execute start; Esper: 0
  int64_t end_ns = 0;        // storer: insert done; Esper: Execute end
};

/// Per (stage, task) log.
struct TaskLog {
  int stage = 0;
  int task = 0;
  uint64_t executed = 0;
  int64_t busy_ns = 0;
  int64_t prepare_ns = 0;
  /// Esper: statements installed, and how many run the incremental
  /// aggregation plan rather than recomputing aggregates per event.
  int32_t statements = 0;
  int32_t incremental = 0;
  std::vector<ExecSpan> spans;           // traced runs only
  std::vector<EsperArrival> arrivals;    // Esper
  std::vector<Detection> detections;     // Esper emissions / storer inserts
};

/// One generated trace as the spout saw it.
struct SpoutEntry {
  uint64_t key = 0;
  int64_t due_ns = 0;
  int64_t emit_ns = 0;
  int64_t ack_ns = 0;  // 0 = never acked
  int32_t failed = 0;
};

/// Everything one process measured. Written to a file by worker processes
/// and merged by the supervisor.
struct ProcessRecord {
  std::vector<SpoutEntry> spout;
  int64_t spout_open_ns = 0;
  std::vector<TaskLog> tasks;
  std::vector<ExecSpan> preloads;   // per Esper task, key = task
  std::vector<Detection> stored;    // detected_events rows after the run
  int64_t peak_rss_kb = 0;

  void Merge(ProcessRecord other);
  bool WriteFile(const std::string& path) const;
  bool ReadFile(const std::string& path);
};

/// The process-wide recorder the probes write into.
class Recorder {
 public:
  static Recorder& Get();

  void set_traced(bool traced) { traced_ = traced; }
  bool traced() const { return traced_; }

  /// Registers a task log (called once per task from Prepare).
  TaskLog* NewTaskLog(int stage, int task);
  /// Bolt tasks of this process whose Prepare has returned.
  void MarkPrepared() { prepared_.fetch_add(1); }
  int prepared() const { return prepared_.load(); }
  /// One Esper engine's threshold preload (key = task index).
  void AddPreload(const ExecSpan& span);
  /// The spout's log; touched only by the one spout task's thread.
  std::vector<SpoutEntry>* spout_log() { return &record_.spout; }
  void set_spout_open(int64_t ns) { record_.spout_open_ns = ns; }

  /// Moves the collected logs out (call after the runtime has stopped).
  ProcessRecord Take();

 private:
  bool traced_ = false;
  std::atomic<int> prepared_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<TaskLog>> logs_;
  ProcessRecord record_;
};

/// The generated input of one run: a trace set replayed in rounds (closed
/// loop) or once on its timestamp schedule (open loop).
struct Load {
  std::vector<insight::traffic::BusTrace> traces;  // one round, ts order
  bool paced = false;
  /// Replay: the trace set is emitted this many times.
  int rounds = 1;
  /// Replay: traces in flight (emitted, not yet acked) at most.
  size_t max_pending = 1;
  /// Paced: trace i is due at start + due_offset_ns[i].
  std::vector<int64_t> due_offset_ns;
  /// Vehicle-id and timestamp offsets of round r: r * these.
  int64_t round_vehicle_offset = 0;
  int64_t round_time_offset = 0;
  /// The first trace is emitted once this returns true: every bolt task of
  /// the run has prepared, so no trace waits on set-up.
  std::function<bool()> ready;

  /// The trace emitted at position `index` of the run (round-shifted).
  insight::traffic::BusTrace TraceAt(size_t index) const;
};

/// The benchmark's load generator: one spout task emitting
/// TraceToRawValues rows as rooted tuples (message id = emission index + 1).
class LoadSpout : public insight::dsps::Spout {
 public:
  explicit LoadSpout(std::shared_ptr<const Load> load) : load_(std::move(load)) {}

  void Open(const insight::dsps::TaskContext& context) override;
  bool NextTuple(insight::dsps::Collector* collector) override;
  void Ack(uint64_t message_id) override;
  void Fail(uint64_t message_id) override;

 private:
  void Emit(insight::dsps::Collector* collector, int64_t due_ns);

  std::shared_ptr<const Load> load_;
  std::vector<SpoutEntry>* entries_ = nullptr;
  size_t next_ = 0;
  size_t resolved_ = 0;
  int64_t start_ns_ = 0;
  bool started_ = false;
};

/// Decorator around a program bolt: times Prepare/Execute/ExecuteBatch into
/// the task's log and forwards SupportsExecuteBatch. Esper and storer
/// wrappers additionally record what the output checks need.
class TimedBolt : public insight::dsps::Bolt {
 public:
  TimedBolt(std::unique_ptr<insight::dsps::Bolt> inner, Stage stage,
            std::shared_ptr<const std::vector<std::string>> rule_names);

  void Prepare(const insight::dsps::TaskContext& context) override;
  void Execute(const insight::dsps::Tuple& input,
               insight::dsps::Collector* collector) override;
  bool SupportsExecuteBatch() const override {
    return inner_->SupportsExecuteBatch();
  }
  void ExecuteBatch(const insight::dsps::Tuple* inputs, size_t count,
                    insight::dsps::Collector* collector) override;
  void Cleanup() override { inner_->Cleanup(); }

 protected:
  std::unique_ptr<insight::dsps::Bolt> inner_;

 private:
  class Tap;
  void Before(const insight::dsps::Tuple& input);
  void After(const insight::dsps::Tuple& input, int64_t start_ns,
             int64_t end_ns);

  Stage stage_;
  std::shared_ptr<const std::vector<std::string>> rule_names_;
  TaskLog* log_ = nullptr;
  std::unique_ptr<Tap> tap_;
  uint64_t current_key_ = 0;
};

/// TimedBolt for a Snapshottable program bolt (forwards the interface).
class TimedSnapshottableBolt : public TimedBolt,
                               public insight::dsps::Snapshottable {
 public:
  TimedSnapshottableBolt(std::unique_ptr<insight::dsps::Bolt> inner,
                         Stage stage,
                         std::shared_ptr<const std::vector<std::string>> rules);
  insight::Status SnapshotState(std::string* out) const override;
  insight::Status RestoreState(const std::string& bytes) override;

 private:
  insight::dsps::Snapshottable* snapshot_;
};

/// Wraps `inner` in the right decorator.
std::unique_ptr<insight::dsps::Bolt> Wrap(
    std::unique_ptr<insight::dsps::Bolt> inner, Stage stage,
    std::shared_ptr<const std::vector<std::string>> rule_names);

/// Peak resident set of this process, in KiB.
int64_t PeakRssKb();

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
