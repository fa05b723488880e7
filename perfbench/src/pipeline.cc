#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/retrieval.h"
#include "core/system.h"
#include "model/latency_model.h"

namespace perfbench {

namespace core = insight::core;
namespace dsps = insight::dsps;
namespace traffic = insight::traffic;
using insight::Result;
using insight::Status;

namespace {

constexpr int64_t kMicrosPerMinute = 60'000'000;
constexpr int64_t kMicrosPerDay = 24LL * 3600 * 1'000'000;

traffic::TraceGenerator::Options GeneratorOptions(const PipelineOptions& o,
                                                  uint64_t seed) {
  traffic::TraceGenerator::Options g;
  g.num_buses = o.num_buses;
  g.num_lines = o.num_lines;
  g.start_hour = o.start_hour;
  g.end_hour = o.start_hour + 2;
  g.seed = seed;
  return g;
}

/// Traces of the first `minutes` of the generator's service.
std::vector<traffic::BusTrace> FirstMinutes(traffic::TraceGenerator* gen,
                                            double minutes) {
  const int64_t end = gen->options().start_hour * 60 * kMicrosPerMinute +
                      static_cast<int64_t>(minutes * kMicrosPerMinute);
  std::vector<traffic::BusTrace> out;
  traffic::BusTrace trace;
  while (gen->Next(&trace) && trace.timestamp < end) out.push_back(trace);
  return out;
}

/// The generator's first `count` traces (fewer only if its service ends).
std::vector<traffic::BusTrace> FirstTraces(traffic::TraceGenerator* gen,
                                           size_t count) {
  std::vector<traffic::BusTrace> out;
  out.reserve(count);
  traffic::BusTrace trace;
  while (out.size() < count && gen->Next(&trace)) out.push_back(trace);
  return out;
}

class StepTimer {
 public:
  StepTimer(Pipeline* p, const char* name) : p_(p), name_(name), start_(NowNs()) {}
  ~StepTimer() { p_->steps.push_back({name_, start_, NowNs()}); }

 private:
  Pipeline* p_;
  const char* name_;
  int64_t start_;
};

}  // namespace

Status BuildPipeline(const PipelineOptions& options, Pipeline* p) {
  p->options = options;
  namespace geo = insight::geo;
  {
    // Spatial indexing (Section 4.1.1).
    StepTimer t(p, "setup.geo.quadtree");
    p->quadtree = std::make_shared<geo::RegionQuadtree>(
        geo::BuildDublinQuadtree(options.seed, 600, {}));
  }
  {
    // Canonical bus stops by DENCLUE (Section 4.1.2).
    StepTimer t(p, "setup.geo.bus_stops");
    traffic::TraceGenerator sampler(GeneratorOptions(options, options.seed));
    auto stops = std::make_shared<geo::BusStopIndex>();
    stops->Build(sampler.CollectStopReports(options.stop_report_samples));
    p->stops = stops;
  }
  {
    // Bootstrap history from another day, enriched offline.
    StepTimer t(p, "setup.traffic.history");
    traffic::TraceGenerator gen(GeneratorOptions(options, options.seed + 1));
    p->history = FirstMinutes(&gen, options.bootstrap_minutes);
    core::EnrichTraces(&p->history, *p->quadtree, *p->stops);
  }
  core::DynamicRuleManager::Config dynamic_config;
  dynamic_config.s = options.threshold_s;
  p->dynamic = std::make_unique<core::DynamicRuleManager>(&p->dfs, &p->store,
                                                          dynamic_config);
  {
    StepTimer t(p, "setup.dfs.append");
    INSIGHT_RETURN_NOT_OK(p->dynamic->AppendHistory(p->history));
  }
  {
    // Statistics job (Section 4.1.3): per-location mean/stdev tables.
    StepTimer t(p, "setup.batch.cycle");
    INSIGHT_ASSIGN_OR_RETURN(size_t rows, p->dynamic->RunBatchCycle());
    if (rows == 0) return Status::Internal("batch bootstrap produced no rows");
  }
  {
    // Groupings, Algorithm 2 allocation, Algorithm 1 partitioning.
    StepTimer t(p, "setup.core.allocate");
    p->rules = core::Table6Rules(options.window_length);
    p->rule_names = std::make_shared<std::vector<std::string>>();
    for (const auto& rule : p->rules) p->rule_names->push_back(rule.name);
    p->area_rates.Seed(core::ComputeRegionRates(p->history, false));
    p->stop_rates.Seed(core::ComputeRegionRates(p->history, true));
    size_t thresholds = 0;
    auto count = p->store.RowCount(insight::storage::StatisticsTableName("delay"));
    if (count.ok()) thresholds = *count;
    p->groupings = core::GroupRulesByLocation(p->rules, 3000.0, thresholds);
    if (p->groupings.empty()) return Status::Internal("no rule groupings");
    insight::model::LatencyModel model = insight::model::LatencyModel::Default();
    core::RulesAllocator allocator(&model);
    INSIGHT_ASSIGN_OR_RETURN(core::AllocationResult allocation,
                             allocator.Allocate(p->groupings, options.esper_tasks));
    p->engines_per_grouping = allocation.engines_per_grouping;

    std::vector<core::SpatialRouter::GroupingRoute> routes;
    int task_base = 0;
    for (size_t g = 0; g < p->groupings.size(); ++g) {
      const int engines = allocation.engines_per_grouping[g];
      const bool is_stops = p->groupings[g].name == "bus_stops";
      INSIGHT_ASSIGN_OR_RETURN(
          auto assignment,
          core::PartitionRegions(
              (is_stops ? p->stop_rates : p->area_rates).Estimates(), engines));
      core::SpatialRouter::GroupingRoute route;
      route.location_field = is_stops ? "bus_stop" : "area_leaf";
      for (const auto& [region, engine] : assignment) {
        route.region_to_engine[region] = task_base + engine;
      }
      for (int e = 0; e < engines; ++e) {
        route.fallback_engines.push_back(task_base + e);
        p->task_grouping.push_back(static_cast<int>(g));
      }
      routes.push_back(std::move(route));
      task_base += engines;
    }
    p->router = std::make_shared<const core::SpatialRouter>(std::move(routes));
  }
  {
    // Listing-1 rules joined with the threshold stream, per grouping.
    StepTimer t(p, "setup.cep.retrieval");
    auto setups = std::make_shared<std::vector<core::RetrievalSetup>>();
    core::RetrievalOptions retrieval;
    retrieval.s = options.threshold_s;
    for (const auto& grouping : p->groupings) {
      INSIGHT_ASSIGN_OR_RETURN(
          core::RetrievalSetup setup,
          core::BuildRetrieval(core::ThresholdRetrieval::kThresholdStream,
                               grouping.rules, &p->store, retrieval));
      setups->push_back(std::move(setup));
    }
    auto config = std::make_shared<traffic::EsperBoltConfig>();
    for (int g : p->task_grouping) {
      config->rules_per_task.push_back((*setups)[static_cast<size_t>(g)].rules);
    }
    // Dispatch to the owning grouping's setup exactly as the system does,
    // timing the preload (the threshold stream fill of each engine).
    config->preload = [setups, tg = p->task_grouping](insight::cep::Engine* engine,
                                                      int task) {
      const auto& setup = (*setups)[static_cast<size_t>(tg[static_cast<size_t>(task)])];
      int64_t start = NowNs();
      if (setup.preload) setup.preload(engine, task);
      Recorder::Get().AddPreload({static_cast<uint64_t>(task), start, NowNs()});
    };
    config->before_send = [setups, tg = p->task_grouping](
                              insight::cep::Engine* engine, int task,
                              const dsps::Tuple& tuple) {
      const auto& setup = (*setups)[static_cast<size_t>(tg[static_cast<size_t>(task)])];
      if (setup.before_send) setup.before_send(engine, task, tuple);
    };
    p->esper_config = config;
  }
  {
    // The load: generated from the seed only.
    StepTimer t(p, "setup.load");
    auto load = std::make_shared<Load>();
    traffic::TraceGenerator gen(GeneratorOptions(options, options.seed));
    load->paced = options.paced;
    const size_t count =
        options.paced ? static_cast<size_t>(std::lround(options.run_seconds *
                                                        options.compression *
                                                        options.num_buses / 20.0))
                      : options.round_traces;
    load->traces = FirstTraces(&gen, count);
    if (load->traces.size() != count) {
      return Status::Internal("the generator ran out of traces for the load");
    }
    load->rounds = options.paced
                       ? 1
                       : std::max<int>(1, static_cast<int>(std::lround(
                                              options.run_seconds * options.replay_rate /
                                              static_cast<double>(count))));
    if (options.paced) {
      // Each trace is due at its timestamp's offset compressed, plus a
      // jitter of up to one mean gap drawn from the seed. The generator
      // staggers its reports exactly evenly, and an exactly periodic
      // schedule locks in phase with the runtime's millisecond timers (see
      // README.md "Input"); the jitter keeps the order and the rate.
      const double mean_gap_ns =
          20e9 / (static_cast<double>(options.num_buses) * options.compression);
      std::mt19937_64 rng(options.seed ^ 0x9ace5eedULL);
      std::uniform_real_distribution<double> jitter(0.0, mean_gap_ns);
      const int64_t ts0 = load->traces.front().timestamp;
      for (const auto& trace : load->traces) {
        load->due_offset_ns.push_back(static_cast<int64_t>(
            static_cast<double>(trace.timestamp - ts0) * 1e3 / options.compression +
            jitter(rng)));
      }
    }
    load->max_pending = options.max_pending;
    int max_vehicle = 0;
    for (const auto& trace : load->traces) {
      max_vehicle = std::max(max_vehicle, trace.vehicle_id);
    }
    load->round_vehicle_offset = max_vehicle + 1;
    load->round_time_offset = kMicrosPerDay;
    p->load = load;
  }
  return Status::OK();
}

Result<dsps::Topology> BuildTopology(Pipeline* p) {
  const PipelineOptions& o = p->options;
  auto names = p->rule_names;
  auto wrap = [names](std::unique_ptr<dsps::Bolt> bolt, Stage stage) {
    return Wrap(std::move(bolt), stage, names);
  };
  dsps::TopologyBuilder builder;
  builder.SetSpout(
      "busReader", [load = p->load] { return std::make_unique<LoadSpout>(load); },
      traffic::RawTraceFields(), 1);
  builder
      .SetBolt("preProcess",
               [wrap] {
                 return wrap(std::make_unique<traffic::PreProcessBolt>(false),
                             kPreprocess);
               },
               traffic::PreProcessedFields(), o.preprocess_tasks)
      .FieldsGrouping("busReader", {"vehicle"});
  builder
      .SetBolt("areaTracker",
               [wrap, quadtree = p->quadtree] {
                 return wrap(std::make_unique<traffic::AreaTrackerBolt>(
                                 quadtree, std::vector<int>{}),
                             kArea);
               },
               traffic::AreaFields({}), o.tracker_tasks)
      .ShuffleGrouping("preProcess");
  builder
      .SetBolt("busStopsTracker",
               [wrap, stops = p->stops] {
                 return wrap(std::make_unique<traffic::BusStopsTrackerBolt>(stops),
                             kStops);
               },
               traffic::EnrichedFields({}), o.tracker_tasks)
      .ShuffleGrouping("areaTracker");
  // The splitter feeds the rate trackers as the system's does.
  auto observing_router = [router = p->router, area = &p->area_rates,
                           stop = &p->stop_rates](const dsps::Tuple& tuple,
                                                  std::vector<int>* tasks) {
    router->Route(tuple, tasks);
    auto a = tuple.GetByField("area_leaf");
    if (a.ok() && a->AsInt() >= 0) area->Observe(a->AsInt());
    auto s = tuple.GetByField("bus_stop");
    if (s.ok() && s->AsInt() >= 0) stop->Observe(s->AsInt());
  };
  builder
      .SetBolt("splitter",
               [wrap, observing_router] {
                 return wrap(std::make_unique<traffic::SplitterBolt>(observing_router),
                             kSplitter);
               },
               traffic::EnrichedFields({}), o.splitter_tasks)
      .ShuffleGrouping("busStopsTracker");
  const int engines = static_cast<int>(p->task_grouping.size());
  builder
      .SetBolt("esper",
               [wrap, config = p->esper_config] {
                 return wrap(std::make_unique<traffic::EsperBolt>(config), kEsper);
               },
               traffic::DetectionFields(), engines, engines)
      .DirectGrouping("splitter");
  builder
      .SetBolt("eventsStorer",
               [wrap, store = &p->store] {
                 return wrap(std::make_unique<traffic::EventsStorerBolt>(store),
                             kStorer);
               },
               dsps::Fields({}), o.storer_tasks)
      .ShuffleGrouping("esper");
  return builder.Build();
}

}  // namespace perfbench
