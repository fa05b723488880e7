// Output checks, computed separately from the program: no src/batch,
// src/storage or cep::Engine code runs here.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.h"
#include "probes.h"

namespace perfbench {

/// Counts the program reports about the run (from its own counters).
struct ProgramCounts {
  uint64_t esper_executed = 0;
  double net_bytes_sent = 0;
  double net_bytes_received = 0;
  double net_frames_sent = 0;
};

struct CheckReport {
  bool ok = true;
  std::vector<std::string> failures;
  uint64_t fed = 0;                 // N
  uint64_t vehicles = 0;            // V
  uint64_t reference_detections = 0;
  uint64_t stored_detections = 0;
  uint64_t ties = 0;                // within rounding of a threshold
  /// Cluster runs: the byte audit, insight_net_bytes_sent_total ==
  /// insight_net_bytes_received_total over all workers. Counted as one
  /// operation of the run rather than in `ok` (see README.md "Checks").
  bool net_audit_ok = true;
  std::string net_audit;

  void Fail(std::string why);
};

/// Conservation, threshold and full-detection-set checks; `cluster` adds
/// the byte audit.
CheckReport CheckRun(const Pipeline& pipeline, const ProcessRecord& record,
                     const ProgramCounts& counts, bool cluster);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
