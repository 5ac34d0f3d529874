// Layer-by-layer replay of one slot and the ISS-vs-cycle-accurate sample.
//
// replay_slot takes SlotScheduler::run_slot apart from the outside: it cuts
// the slot into the same batches (allocation chunks of num_cores x
// problems_per_core problems, fast-forward shrink included), and for each
// batch calls the public layer functions itself - kern::build_mmse_program,
// Machine::load_program, sim::stage_problem, Machine::run, sim::read_xhat -
// under spans. Its detections and cycle estimates must equal the
// scheduler's, which both checks the replay and makes its layer times stand
// for the scheduler's.
#pragma once

#include <vector>

#include "common.h"
#include "kernels/layout.h"
#include "ran/scheduler.h"

namespace e2e {

struct ReplayStats {
  double stage_s = 0.0;
  double run_s = 0.0;
  double readback_s = 0.0;
  bool exited = true;   // every batch run reached the exit barrier
  bool matches = true;  // bits and cycles equal the scheduler's
};

/// Replays `slot` (already run by `sched` with result `expect`) batch by
/// batch on a private machine of the scheduler's cluster shape.
ReplayStats replay_slot(const tsim::ran::SlotScheduler& sched,
                        const std::vector<tsim::ran::UeGroup>& groups,
                        const tsim::ran::SlotWorkload& slot,
                        const tsim::ran::SlotResult& expect);

/// Times SlotScheduler::run_slot on `slot` and replays it; records the
/// scheduler's self time (run_slot minus the replayed staging, ISS runs and
/// readback - an estimate, see replay.cpp) and checks the replay. Returns
/// false when the replay differs.
bool decompose_slot(tsim::ran::SlotScheduler& sched,
                    const std::vector<tsim::ran::UeGroup>& groups,
                    const tsim::ran::SlotWorkload& slot, Ledger& ledger,
                    const std::string& label);

/// Records the scheduler's batch counters over one drive, from two
/// SlotScheduler::fast_forward_stats readings: batches run, problem slots of
/// the full-width layouts they ran (the modeled DUT always runs full width;
/// fast-forward only shrinks host work) and batches shrunk by fast-forward.
void count_ff(const tsim::ran::SlotScheduler::FastForwardStats& before,
              const tsim::ran::SlotScheduler::FastForwardStats& after, u32 ppc);

struct UarchSample {
  u64 iss_cycles = 0;
  u64 uarch_cycles = 0;
  bool exited = false;
  double gap() const {  // (uarch - iss) / uarch
    return uarch_cycles == 0 ? 0.0
                             : (static_cast<double>(uarch_cycles) -
                                static_cast<double>(iss_cycles)) /
                                   static_cast<double>(uarch_cycles);
  }
};

/// Runs one batch of `problems` on `cores` cores of `cluster` at one problem
/// per core, on the ISS and on the cycle-accurate uarch::ClusterSim.
UarchSample uarch_sample(const tsim::tera::TeraPoolConfig& cluster, u32 cores, u32 ntx,
                         u32 nrx, tsim::kern::Precision prec,
                         const std::vector<tsim::sim::MimoProblem>& problems);

/// The output check shared by every workload: on a small batch of the
/// workload's own cluster shape, the ISS estimate never exceeds the
/// cycle-accurate count.
void check_uarch(Ledger& ledger, const std::string& label,
                 const tsim::tera::TeraPoolConfig& cluster, u32 cores, u32 ntx, u32 nrx,
                 tsim::kern::Precision prec,
                 const std::vector<tsim::sim::MimoProblem>& problems);

}  // namespace e2e
