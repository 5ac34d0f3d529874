// The benchmark's workloads. Each one is a closed loop over public entry
// points (SlotScheduler::run_slot, mac::run_farm, dse::run_sweep): the next
// operation starts when the previous one has returned.
//
// Life cycle, driven by main.cpp:
//   setup()   builds everything the timed phase needs (timed as setup_s and
//             repeated; the last build is kept);
//   round()   one round of the timed phase, appending one wall/CPU sample
//             per operation to the record's op kinds;
//   check()   verifies the outputs of the timed phase against the
//             benchmark's own references, outside the timed phase;
//   traced()  the traced run: the same configuration driven untraced, with
//             spans, and untraced again (overhead), taken apart layer by
//             layer, and checked like check().
#pragma once

#include <memory>
#include <string>

#include "common.h"

namespace e2e {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up repetitions per run (setup_s is their median): enough that the
  /// median holds still when one build is short.
  virtual int setups() const { return 3; }
  virtual void setup() = 0;
  virtual void round(RunRecord& rec) = 0;
  virtual void check(RunRecord& rec) = 0;
  virtual void traced(RunRecord& rec) = 0;
};

struct WorkloadOptions {
  u64 seed = 1;
  /// Directory the workload may write files into (farm checkpoints).
  std::string scratch;
  /// Shrinks farm_soak / dse_sweep to the cross-layer probe size (used only
  /// by traced runs of the other workloads).
  bool tiny = false;
  /// Reference-figure overrides, never used by the benchmark runs: one
  /// ofdm_symbol size (N x N MIMO, one symbol per round) and the farm_soak
  /// shard count.
  u32 mimo = 0;
  u32 shards = 0;
};

/// Builds workload `name`; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt);

std::unique_ptr<Workload> make_ofdm(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_farm(const WorkloadOptions& opt);
std::unique_ptr<Workload> make_dse(const WorkloadOptions& opt);

}  // namespace e2e
