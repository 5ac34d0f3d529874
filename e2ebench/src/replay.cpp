#include "replay.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/error.h"
#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "phy/qam.h"
#include "sim/cosim.h"
#include "sim/report.h"
#include "uarch/cluster_sim.h"

namespace e2e {

using namespace tsim;

namespace {

/// Active cores of a fast-forward shrunk batch (SlotScheduler::run_batch's
/// rule: a power of two of at least kMinFastForwardCores, capped at the
/// layout width).
u32 run_cores_for(const ran::ClusterPoolConfig& cfg, const kern::MmseLayout& lay,
                  u32 count) {
  const u32 capacity = lay.num_cores * lay.problems_per_core;
  if (!cfg.fast_forward || cfg.fault.enabled || count >= capacity)
    return lay.num_cores;
  const u32 need = (count + lay.problems_per_core - 1) / lay.problems_per_core;
  u32 cores = ran::SlotScheduler::kMinFastForwardCores;
  while (cores < need) cores <<= 1;
  return std::min(cores, lay.num_cores);
}

void stage(tera::ClusterMemory& mem, const kern::MmseLayout& lay,
           const std::vector<sim::MimoProblem>& problems, u32 first, u32 count,
           u32 slots) {
  for (u32 i = 0; i < slots; ++i) {
    const u32 p = first + (i < count ? i : i % count);
    sim::stage_problem(mem, lay, i / lay.problems_per_core,
                       i % lay.problems_per_core, problems[p]);
  }
}

}  // namespace

ReplayStats replay_slot(const ran::SlotScheduler& sched,
                        const std::vector<ran::UeGroup>& groups,
                        const ran::SlotWorkload& slot,
                        const ran::SlotResult& expect) {
  const ran::ClusterPoolConfig& cfg = sched.config();
  iss::Machine machine(cfg.cluster, iss::TimingConfig{},
                       sched.layout_for_group(0).num_cores);
  std::map<std::tuple<u32, u32, u32>, iss::Machine::ProgramHandle> programs;

  ReplayStats st;
  u32 batch = 0;
  for (u32 a = 0; a < slot.allocations.size(); ++a) {
    const ran::Allocation& alloc = slot.allocations[a];
    const kern::MmseLayout& lay = sched.layout_for_group(alloc.group);
    const phy::QamModulator qam(groups.at(alloc.group).qam_order);
    const u32 bits_per_problem = lay.ntx * qam.bits_per_symbol();
    const u32 capacity = lay.num_cores * lay.problems_per_core;
    for (u32 off = 0; off < alloc.num_problems(); off += capacity, ++batch) {
      const u32 count = std::min(capacity, alloc.num_problems() - off);
      const u32 run_cores = run_cores_for(cfg, lay, count);
      const auto key = std::make_tuple(lay.ntx, lay.nrx, run_cores);
      auto it = programs.find(key);
      if (it == programs.end()) {
        kern::MmseLayout variant = lay;
        if (run_cores < lay.num_cores) variant.active_cores = run_cores;
        rvasm::Program prog;
        {
          Span s("kernels.build");
          prog = kern::build_mmse_program(variant);
        }
        Span s("iss.translate");
        it = programs.emplace(key, machine.load_program(prog)).first;
      } else if (machine.active_program() != it->second) {
        machine.select_program(it->second);
      }

      double t = now_s();
      {
        Span s("cosim.stage");
        stage(machine.memory(), lay, alloc.batch.problems, off, count,
              run_cores * lay.problems_per_core);
      }
      st.stage_s += now_s() - t;
      g_trace.count("cosim.staged", run_cores * lay.problems_per_core);

      machine.reset_harts();
      t = now_s();
      iss::RunResult run;
      {
        Span s("iss.run");
        run = machine.run();
      }
      st.run_s += now_s() - t;
      g_trace.count("iss.instructions", static_cast<double>(run.instructions));
      st.exited = st.exited && run.exited && !run.deadlock;
      st.matches = st.matches && batch < expect.trace.size() &&
                   expect.trace[batch].cycles == machine.estimated_cycles();

      t = now_s();
      {
        Span s("cosim.readback");
        const std::vector<u8>& det = expect.detected_bits.at(a);
        for (u32 i = 0; i < count; ++i) {
          const auto xhat = sim::read_xhat(machine.memory(), lay,
                                           i / lay.problems_per_core,
                                           i % lay.problems_per_core);
          const std::vector<u8> bits = qam.demap_sequence(xhat);
          const size_t base = static_cast<size_t>(off + i) * bits_per_problem;
          st.matches = st.matches && std::equal(bits.begin(), bits.end(),
                                                det.begin() + static_cast<i64>(base));
        }
      }
      st.readback_s += now_s() - t;
      g_trace.count("cosim.read", count);
    }
  }
  const iss::BatchStats& bs = machine.batch_stats();
  g_trace.count("iss.lockstep_instr", static_cast<double>(bs.lockstep_instructions));
  g_trace.count("iss.serial_instr", static_cast<double>(bs.serial_instructions));
  g_trace.count("iss.width_sum", static_cast<double>(bs.width_sum));
  g_trace.count("iss.formations", static_cast<double>(bs.batches));
  st.matches = st.matches && batch == expect.trace.size();
  return st;
}

bool decompose_slot(ran::SlotScheduler& sched, const std::vector<ran::UeGroup>& groups,
                    const ran::SlotWorkload& slot, Ledger& ledger,
                    const std::string& label) {
  double t = now_s();
  ran::SlotResult res;
  {
    Span s("sched.run_slot");
    res = sched.run_slot(slot);
  }
  const double slot_s = now_s() - t;
  ReplayStats st;
  {
    Span s("replay.slot");
    st = replay_slot(sched, groups, slot, res);
  }
  // Signed: where ISS runs dominate the slot (ofdm_symbol), the run-to-run
  // noise of the replayed runs can exceed the scheduler's own work.
  g_trace.count("sched.self_s", slot_s - st.stage_s - st.run_s - st.readback_s);
  g_trace.count("sched.self_slots", 1);
  g_trace.count("iss.run_s", st.run_s);
  const bool ok = st.exited && st.matches;
  ledger.check(label + ": layer replay equals run_slot (bits and cycles)", ok);
  return ok;
}

void count_ff(const ran::SlotScheduler::FastForwardStats& before,
              const ran::SlotScheduler::FastForwardStats& after, u32 ppc) {
  const u64 full = after.full_batches - before.full_batches;
  const u64 shrunk = after.shrunk_batches - before.shrunk_batches;
  g_trace.count("sched.batches", static_cast<double>(full + shrunk));
  g_trace.count("sched.shrunk", static_cast<double>(shrunk));
  g_trace.count("sched.problem_slots",
                static_cast<double>((after.cores_full - before.cores_full) * ppc));
}

UarchSample uarch_sample(const tera::TeraPoolConfig& cluster, u32 cores, u32 ntx,
                         u32 nrx, kern::Precision prec,
                         const std::vector<sim::MimoProblem>& problems) {
  kern::MmseLayout lay;
  lay.ntx = ntx;
  lay.nrx = nrx;
  lay.prec = prec;
  lay.problems_per_core = 1;
  lay.cluster = cluster;
  lay.num_cores = std::min(
      cores, kern::MmseLayout::max_parallel_cores(lay.cluster, ntx, nrx, prec));
  lay.validate();
  const rvasm::Program prog = kern::build_mmse_program(lay);
  const u32 n = static_cast<u32>(std::min<size_t>(problems.size(), lay.num_cores));
  check(n > 0, "uarch_sample: no problems to stage");

  UarchSample out;
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(prog);
  stage(machine.memory(), lay, problems, 0, n, lay.num_cores);
  const iss::RunResult fast = machine.run();
  out.iss_cycles = machine.estimated_cycles();

  uarch::ClusterSim rtl(lay.cluster, uarch::UarchConfig{}, lay.num_cores);
  rtl.load_program(prog);
  stage(rtl.memory(), lay, problems, 0, n, lay.num_cores);
  const double t = now_s();
  uarch::UarchRunResult slow;
  {
    Span s("uarch.run");
    slow = rtl.run();
  }
  g_trace.count("uarch.run_s", now_s() - t);
  g_trace.count("uarch.samples", 1);
  out.uarch_cycles = slow.cycles;
  out.exited = fast.exited && !fast.deadlock && slow.exited && !slow.deadlock;
  g_trace.count("uarch.gap_sum", out.gap());
  return out;
}

void check_uarch(Ledger& ledger, const std::string& label,
                 const tera::TeraPoolConfig& cluster, u32 cores, u32 ntx, u32 nrx,
                 kern::Precision prec, const std::vector<sim::MimoProblem>& problems) {
  const UarchSample s = uarch_sample(cluster, cores, ntx, nrx, prec, problems);
  ledger.check(label + ": ISS and cycle-accurate runs exit", s.exited);
  ledger.check(label + ": ISS cycles <= cycle-accurate cycles",
               s.iss_cycles <= s.uarch_cycles);
  ledger.note(sim::strf("uarch %s: ISS %llu vs cycle-accurate %llu cycles (gap %.1f%%)",
                        label.c_str(), static_cast<unsigned long long>(s.iss_cycles),
                        static_cast<unsigned long long>(s.uarch_cycles),
                        100.0 * s.gap()));
}

}  // namespace e2e
