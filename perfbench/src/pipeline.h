// The paper's Figure-8 pipeline, put together from the program's public
// pieces the way core::TrafficManagementSystem::Initialize/Run do it, with
// every set-up step timed and every bolt wrapped in a probe.
//
// TrafficManagementSystem::Run itself cannot be used: it is tied to
// LocalRuntime, and its closures over `this` cannot be rebuilt inside a
// worker process. Every process of a cluster run calls BuildPipeline with
// the same options and gets the identical topology.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/allocation.h"
#include "core/dynamic.h"
#include "core/partitioning.h"
#include "core/rule_template.h"
#include "dfs/mini_dfs.h"
#include "dsps/topology.h"
#include "geo/bus_stops.h"
#include "geo/quadtree.h"
#include "probes.h"
#include "storage/table_store.h"
#include "traffic/bolts.h"
#include "traffic/generator.h"

namespace perfbench {

/// Input make-up and topology sizing. Everything here is fixed by the
/// workload and the seed; README.md records the values.
struct PipelineOptions {
  uint64_t seed = 1;
  bool paced = false;
  double run_seconds = 10;
  /// Tasks per program bolt (the Esper bolt runs one cep::Engine per task
  /// and needs one per rule grouping). The generator is one spout task.
  int preprocess_tasks = 1;
  int tracker_tasks = 1;
  int splitter_tasks = 1;
  int esper_tasks = 4;
  int storer_tasks = 1;

  // Input make-up (see README.md "Input").
  int num_buses = 911;
  int num_lines = 67;
  int start_hour = 7;
  double bootstrap_minutes = 10;  // history for the batch bootstrap
  size_t stop_report_samples = 2000;
  size_t window_length = 10;      // Table 6 rules, length-10 windows
  double threshold_s = 1.0;       // Listing 2's s
  /// Replay: one round is the fleet's first this many traces (about 14.6
  /// minutes of service; a count, so every seed does the same work).
  size_t round_traces = 40000;
  /// Closed-loop replay: traces in flight at most, and the rate that sizes
  /// the replay to last about run_seconds (fixed, so the work per run is).
  size_t max_pending = 1024;
  double replay_rate = 8000;
  /// Open-loop pacing: Dublin time runs this many times faster, and a run
  /// feeds the first run_seconds x compression x num_buses / 20 traces
  /// (one report per bus every 20 s), a count fixed by the options.
  double compression = 16;
};

/// A timed set-up call.
struct SetupStep {
  std::string name;  // e.g. "setup.geo.quadtree"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Pipeline {
  PipelineOptions options;
  std::shared_ptr<const insight::geo::RegionQuadtree> quadtree;
  std::shared_ptr<const insight::geo::BusStopIndex> stops;
  insight::dfs::MiniDfs dfs;
  /// Statistics tables (set-up) and the detected_events table (run).
  insight::storage::TableStore store;
  std::unique_ptr<insight::core::DynamicRuleManager> dynamic;
  /// Enriched bootstrap history, as appended to the DFS.
  std::vector<insight::traffic::BusTrace> history;

  std::vector<insight::core::RuleTemplate> rules;
  std::shared_ptr<std::vector<std::string>> rule_names;
  std::vector<insight::core::RuleGrouping> groupings;
  std::vector<int> engines_per_grouping;
  /// Esper task -> grouping index.
  std::vector<int> task_grouping;
  std::shared_ptr<const insight::core::SpatialRouter> router;
  insight::core::RegionRateTracker area_rates;
  insight::core::RegionRateTracker stop_rates;
  std::shared_ptr<insight::traffic::EsperBoltConfig> esper_config;

  std::shared_ptr<Load> load;
  std::vector<SetupStep> steps;
};

/// Runs every set-up step (timed into pipeline->steps) and generates the
/// load.
insight::Status BuildPipeline(const PipelineOptions& options,
                              Pipeline* pipeline);

/// The Figure-8 topology over the pipeline's pieces. The pipeline must
/// outlive every runtime built from it.
insight::Result<insight::dsps::Topology> BuildTopology(Pipeline* pipeline);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
