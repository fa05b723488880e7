#include "check.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

namespace perfbench {

namespace {

using insight::core::RuleTemplate;
using insight::traffic::BusTrace;

constexpr const char* kAttrs[] = {"delay", "actual_delay", "speed", "congestion"};
constexpr int kNumAttrs = 4;

int AttrIndex(const std::string& name) {
  for (int i = 0; i < kNumAttrs; ++i) {
    if (name == kAttrs[i]) return i;
  }
  return -1;
}

/// The value the history holds for an attribute: the DFS stores each trace
/// as text with two decimals, so the statistics are over rounded values.
double HistoryValue(const BusTrace& t, int attr) {
  if (attr == 3) return t.congestion ? 1.0 : 0.0;
  double v = attr == 0 ? t.delay_seconds : attr == 1 ? t.actual_delay : t.speed_kmh;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return std::strtod(buf, nullptr);
}

double ArrivalValue(const EsperArrival& a, int attr) {
  switch (attr) {
    case 0: return a.delay;
    case 1: return a.actual_delay;
    case 2: return a.speed;
    default: return a.congestion;
  }
}

/// (attribute, location namespace, location, hour, weekend).
using ThrKey = std::tuple<int, bool, int64_t, int, bool>;

struct Moments {
  double n = 0, sum = 0, sumsq = 0;
};

/// mean + s * stdev per key, with s negated for below-rules (speed).
std::map<ThrKey, double> Thresholds(const Pipeline& p) {
  std::map<ThrKey, Moments> moments;
  for (const BusTrace& t : p.history) {
    const bool weekend = t.date_type == "weekend";
    for (int attr = 0; attr < kNumAttrs; ++attr) {
      const double v = HistoryValue(t, attr);
      for (bool stop : {false, true}) {
        Moments& m = moments[{attr, stop, stop ? t.bus_stop : t.area_leaf,
                              t.hour, weekend}];
        m.n += 1;
        m.sum += v;
        m.sumsq += v * v;
      }
    }
  }
  std::map<ThrKey, double> out;
  for (const auto& [key, m] : moments) {
    const double mean = m.sum / m.n;
    double var = m.n < 2 ? 0 : m.sumsq / m.n - mean * mean;
    const double stdev = var > 0 ? std::sqrt(var) : 0;
    const double s = std::get<0>(key) == 2 ? -p.options.threshold_s
                                           : p.options.threshold_s;
    out[key] = mean + s * stdev;
  }
  return out;
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

struct RefDetection {
  double value = 0;
  double threshold = 0;
  bool tie = false;
};

/// (rule, location, timestamp).
using DetKey = std::tuple<int, int64_t, int64_t>;

}  // namespace

void CheckReport::Fail(std::string why) {
  ok = false;
  if (failures.size() < 20) failures.push_back(std::move(why));
}

CheckReport CheckRun(const Pipeline& p, const ProcessRecord& record,
                     const ProgramCounts& counts, bool cluster) {
  CheckReport report;
  char buf[256];

  // --- Conservation -------------------------------------------------------
  std::set<uint64_t> vehicles;
  for (const SpoutEntry& e : record.spout) vehicles.insert(e.key >> 44);
  report.fed = record.spout.size();
  report.vehicles = vehicles.size();
  const uint64_t expected = report.fed - report.vehicles;
  const size_t num_groupings = p.groupings.size();
  std::vector<uint64_t> per_grouping(num_groupings, 0);
  std::vector<const TaskLog*> esper_logs(p.task_grouping.size(), nullptr);
  for (const TaskLog& log : record.tasks) {
    if (log.stage != kEsper) continue;
    if (log.task < 0 || static_cast<size_t>(log.task) >= esper_logs.size()) {
      report.Fail("esper log for unknown task");
      continue;
    }
    esper_logs[static_cast<size_t>(log.task)] = &log;
    per_grouping[static_cast<size_t>(p.task_grouping[static_cast<size_t>(log.task)])] +=
        log.arrivals.size();
  }
  for (size_t g = 0; g < num_groupings; ++g) {
    if (per_grouping[g] != expected) {
      std::snprintf(buf, sizeof(buf),
                    "conservation: grouping %s received %llu tuples, expected "
                    "N - V = %llu",
                    p.groupings[g].name.c_str(),
                    static_cast<unsigned long long>(per_grouping[g]),
                    static_cast<unsigned long long>(expected));
      report.Fail(buf);
    }
  }
  if (counts.esper_executed != expected * num_groupings) {
    std::snprintf(buf, sizeof(buf),
                  "conservation: insight_tuples_executed_total{esper} = %llu, "
                  "expected %zu x (N - V) = %llu",
                  static_cast<unsigned long long>(counts.esper_executed),
                  num_groupings,
                  static_cast<unsigned long long>(expected * num_groupings));
    report.Fail(buf);
  }
  if (cluster) {
    report.net_audit_ok = counts.net_bytes_sent == counts.net_bytes_received;
    std::snprintf(buf, sizeof(buf), "%.0f bytes sent, %.0f received",
                  counts.net_bytes_sent, counts.net_bytes_received);
    report.net_audit = buf;
  }

  // --- Thresholds of stored detections ------------------------------------
  const std::map<ThrKey, double> thresholds = Thresholds(p);
  auto threshold_for = [&](const RuleTemplate& rule, int attr, int64_t location,
                           int hour, bool weekend, double* out) {
    auto it = thresholds.find(
        {attr, rule.location_field == "bus_stop", location, hour, weekend});
    if (it == thresholds.end()) return false;
    *out = it->second;
    return true;
  };
  report.stored_detections = record.stored.size();
  for (const Detection& d : record.stored) {
    if (d.rule < 0 || static_cast<size_t>(d.rule) >= p.rules.size()) {
      report.Fail("stored detection with unknown rule");
      continue;
    }
    const RuleTemplate& rule = p.rules[static_cast<size_t>(d.rule)];
    const int attr = AttrIndex(rule.attributes[0].name);
    const int hour = static_cast<int>((d.timestamp / 3'600'000'000LL) % 24);
    double expected_thr = 0;
    if (!threshold_for(rule, attr, d.location, hour, false, &expected_thr)) {
      std::snprintf(buf, sizeof(buf),
                    "threshold: %s at %lld hour %d has no history",
                    rule.name.c_str(), static_cast<long long>(d.location), hour);
      report.Fail(buf);
      continue;
    }
    if (!Near(d.threshold, expected_thr, 1e-6)) {
      std::snprintf(buf, sizeof(buf),
                    "threshold: %s at %lld stored %.9g, history gives %.9g",
                    rule.name.c_str(), static_cast<long long>(d.location),
                    d.threshold, expected_thr);
      report.Fail(buf);
    }
    const bool side_ok = rule.attributes[0].below ? d.value < d.threshold
                                                  : d.value > d.threshold;
    if (!side_ok && !Near(d.value, d.threshold, 1e-9)) {
      std::snprintf(buf, sizeof(buf),
                    "threshold: %s at %lld value %.9g on the wrong side of %.9g",
                    rule.name.c_str(), static_cast<long long>(d.location),
                    d.value, d.threshold);
      report.Fail(buf);
    }
  }

  // --- Full detection set: plain-code windows over the recorded order -----
  std::map<DetKey, std::vector<RefDetection>> reference;
  for (size_t task = 0; task < esper_logs.size(); ++task) {
    const TaskLog* log = esper_logs[task];
    if (log == nullptr) continue;
    const auto& grouping =
        p.groupings[static_cast<size_t>(p.task_grouping[task])];
    for (const RuleTemplate& rule : grouping.rules) {
      const int rule_index = static_cast<int>(
          std::find(p.rule_names->begin(), p.rule_names->end(), rule.name) -
          p.rule_names->begin());
      const bool by_stop = rule.location_field == "bus_stop";
      std::unordered_map<int64_t, std::deque<const EsperArrival*>> windows;
      for (const EsperArrival& a : log->arrivals) {
        const int64_t loc = by_stop ? a.bus_stop : a.area_leaf;
        auto& window = windows[loc];
        window.push_back(&a);
        if (window.size() > rule.window_length) window.pop_front();
        bool fire = true;
        bool tie = false;
        double primary_avg = 0, primary_thr = 0;
        for (size_t k = 0; k < rule.attributes.size(); ++k) {
          const int attr = AttrIndex(rule.attributes[k].name);
          double thr = 0;
          if (!threshold_for(rule, attr, loc, a.hour, a.weekend != 0, &thr)) {
            fire = tie = false;  // the join finds no threshold row
            break;
          }
          double sum = 0;
          for (const EsperArrival* w : window) sum += ArrivalValue(*w, attr);
          const double avg = sum / static_cast<double>(window.size());
          // Exact equality is decided the same way by both sides (strictly
          // not past the threshold); only a near miss can flip on rounding.
          if (avg != thr && Near(avg, thr, 1e-9)) tie = true;
          if (rule.attributes[k].below ? !(avg < thr) : !(avg > thr)) fire = false;
          if (k == 0) {
            primary_avg = avg;
            primary_thr = thr;
          }
        }
        // A tie is kept, whichever way it fell, only to excuse a stored
        // match: it counts neither as expected nor as a mismatch.
        if (fire || tie) {
          reference[{rule_index, loc, a.timestamp}].push_back(
              {primary_avg, primary_thr, tie});
        }
      }
    }
  }
  std::map<DetKey, std::vector<const Detection*>> stored;
  for (const Detection& d : record.stored) {
    stored[{d.rule, d.location, d.timestamp}].push_back(&d);
  }
  uint64_t missing = 0, extra = 0, value_mismatch = 0;
  std::string first_mismatch;
  for (const auto& [key, refs] : reference) {
    auto it = stored.find(key);
    const size_t have = it == stored.end() ? 0 : it->second.size();
    size_t firm = 0;
    for (const RefDetection& r : refs) {
      if (r.tie) {
        ++report.ties;
      } else {
        ++firm;
        ++report.reference_detections;
      }
    }
    if (have < firm) {
      missing += firm - have;
      if (first_mismatch.empty()) {
        std::snprintf(buf, sizeof(buf), "rule %s location %lld ts %lld missing",
                      (*p.rule_names)[static_cast<size_t>(std::get<0>(key))].c_str(),
                      static_cast<long long>(std::get<1>(key)),
                      static_cast<long long>(std::get<2>(key)));
        first_mismatch = buf;
      }
    }
    if (have > refs.size()) extra += have - refs.size();
    if (it != stored.end()) {
      for (const Detection* d : it->second) {
        bool matched = false;
        for (const RefDetection& r : refs) {
          matched |= Near(d->value, r.value, 1e-6) &&
                     Near(d->threshold, r.threshold, 1e-6);
        }
        if (!matched) ++value_mismatch;
      }
    }
  }
  for (const auto& [key, dets] : stored) {
    if (reference.count(key) == 0) {
      extra += dets.size();
      if (first_mismatch.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "rule %s location %lld ts %lld stored, not in reference",
                      (*p.rule_names)[static_cast<size_t>(std::get<0>(key))].c_str(),
                      static_cast<long long>(std::get<1>(key)),
                      static_cast<long long>(std::get<2>(key)));
        first_mismatch = buf;
      }
    }
  }
  if (missing + extra + value_mismatch > 0) {
    std::snprintf(buf, sizeof(buf),
                  "detections: %llu missing, %llu extra, %llu with other "
                  "values (reference %llu, stored %llu); first: %s",
                  static_cast<unsigned long long>(missing),
                  static_cast<unsigned long long>(extra),
                  static_cast<unsigned long long>(value_mismatch),
                  static_cast<unsigned long long>(report.reference_detections),
                  static_cast<unsigned long long>(report.stored_detections),
                  first_mismatch.c_str());
    report.Fail(buf);
  }
  return report;
}

}  // namespace perfbench
