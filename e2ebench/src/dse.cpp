// dse_sweep: the medium design space (1/2/4 clusters x 16/32/64 cores x the
// four timed precisions x 1/4 problems per core, locality policy), one TTI
// per point on the 10 MHz x 4-symbol carrier with the three mixed
// geometries, warm-started, with the golden reference. Every round is the
// same sweep, so every round must return the first round's metrics.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "dse/pareto.h"
#include "dse/space.h"
#include "dse/sweep.h"
#include "refdet.h"
#include "replay.h"
#include "sim/report.h"
#include "workloads.h"

namespace e2e {

using namespace tsim;

namespace {

bool same_metrics(const dse::PointMetrics& a, const dse::PointMetrics& b) {
  return a.point == b.point && a.batch_cores == b.batch_cores &&
         a.problems == b.problems && a.bits == b.bits && a.errors == b.errors &&
         a.golden_errors == b.golden_errors && a.instructions == b.instructions &&
         a.slot_cycles == b.slot_cycles && a.worst_slot_bits == b.worst_slot_bits &&
         a.reloads == b.reloads && a.reload_cycles == b.reload_cycles &&
         a.busy_cycles == b.busy_cycles;
}

bool same_sweep(const std::vector<dse::PointMetrics>& a,
                const std::vector<dse::PointMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!same_metrics(a[i], b[i])) return false;
  return true;
}

/// The pool run_sweep builds for a point.
ran::ClusterPoolConfig point_pool(const dse::DesignPoint& p, const dse::SweepConfig& cfg) {
  ran::ClusterPoolConfig pool;
  pool.num_clusters = p.clusters;
  pool.host_threads = cfg.host_threads;
  pool.threads_per_cluster = cfg.threads_per_cluster;
  pool.prec = p.prec;
  pool.problems_per_core = p.problems_per_core;
  pool.policy = p.policy;
  pool.cluster = dse::cluster_for_cores(p.cores_per_cluster);
  return pool;
}

/// Warm-started construction as run_sweep does it: the first scheduler per
/// warm key pays for programs, translation and calibration; siblings adopt
/// its state (upgraded once a calibrated sibling appears).
class WarmCache {
 public:
  std::unique_ptr<ran::SlotScheduler> build(const ran::ClusterPoolConfig& pool,
                                            const std::vector<ran::UeGroup>& groups) {
    const u64 key = ran::SlotScheduler::warm_key(pool, groups);
    const auto it = cache_.find(key);
    std::unique_ptr<ran::SlotScheduler> s;
    {
      Span sp("sched.ctor");
      s = std::make_unique<ran::SlotScheduler>(
          pool, groups, it == cache_.end() ? nullptr : &it->second);
    }
    if (it == cache_.end()) {
      cache_.emplace(key, s->export_warm_state());
    } else if (!it->second.calibrated) {
      ran::SlotScheduler::WarmState ws = s->export_warm_state();
      if (ws.calibrated) it->second = std::move(ws);
    }
    return s;
  }

 private:
  std::map<u64, ran::SlotScheduler::WarmState> cache_;
};

class Dse final : public Workload {
 public:
  explicit Dse(const WorkloadOptions& opt) {
    space_.policies = {ran::AssignPolicy::kLocality};
    if (opt.tiny) {
      space_.clusters = {1, 2};
      space_.cores_per_cluster = {16};
      space_.precisions = {kern::Precision::k16CDotp};
      space_.problems_per_core = {1};
      cfg_.traffic.carrier.bandwidth_hz = 2e6;
      cfg_.traffic.carrier.symbols_per_slot = 2;
    } else {
      space_.clusters = {1, 2, 4};
      space_.cores_per_cluster = {16, 32, 64};
      space_.precisions.assign(std::begin(kern::kTimedPrecisions),
                               std::end(kern::kTimedPrecisions));
      space_.problems_per_core = {1, 4};
      cfg_.traffic.carrier.bandwidth_hz = 10e6;
      cfg_.traffic.carrier.symbols_per_slot = 4;
    }
    cfg_.traffic.groups = ran::mixed_geometry_groups();
    cfg_.traffic.seed = Rng::derive_seed(opt.seed, {0xD5E});
    cfg_.ttis = 1;
    cfg_.host_threads = 1;
    cfg_.golden_ber = true;
    cfg_.warm_start = true;
  }

  void setup() override {
    // run_sweep constructs its traffic generator and schedulers inside the
    // timed call; the same constructors for the same points are timed here,
    // warm-started alike.
    const ran::TrafficGenerator gen(cfg_.traffic);
    WarmCache warm;
    for (const dse::DesignPoint& p : space_.enumerate()) {
      try {
        warm.build(point_pool(p, cfg_), cfg_.traffic.groups);
      } catch (const SimError&) {
        // Infeasible points are skipped by run_sweep too (and fail the check).
      }
    }
  }

  void round(RunRecord& rec) override {
    if (rec.kinds.empty()) rec.kinds.push_back(OpKind{"sweep", 0, {}, {}});
    const u64 points = space_.enumerate().size();
    rec.attempted += points;
    const double t0 = now_s();
    const double c0 = cpu_s();
    try {
      dse::SweepResult res;
      {
        Span s("dse.run_sweep");
        res = dse::run_sweep(space_, cfg_);
      }
      rec.kinds[0].wall.push_back(now_s() - t0);
      rec.kinds[0].cpu.push_back(cpu_s() - c0);
      rec.failed += res.skipped.size();
      skipped_ += res.skipped.size();
      for (const dse::PointMetrics& m : res.points) {
        g_trace.count("dse.point_s_sum", m.wall_seconds);
        g_trace.count("dse.points", 1);
      }
      for (const dse::PointMetrics& m : res.points) rec.kinds[0].detected += m.problems;
      if (first_.empty()) {
        first_ = res.points;
      } else if (!same_sweep(first_, res.points)) {
        ++mismatches_;
      }
    } catch (const SimError& e) {
      rec.kinds[0].wall.push_back(now_s() - t0);
      rec.kinds[0].cpu.push_back(cpu_s() - c0);
      rec.failed += points;
      ++failed_rounds_;
      rec.ledger.note(std::string("run_sweep failed: ") + e.what());
    }
  }

  void check(RunRecord& rec) override {
    Ledger& L = rec.ledger;
    const u64 points = space_.enumerate().size();
    L.check("dse: no sweep failed and no point was skipped",
            failed_rounds_ == 0 && skipped_ == 0 && first_.size() == points);
    L.check("dse: every round returns the first round's metrics", mismatches_ == 0);

    // Reference detector on the sweep's own slots (run_sweep draws them with
    // next_slot() from TTI 0).
    ran::TrafficGenerator gen(cfg_.traffic);
    u64 ref = 0;
    std::vector<sim::MimoProblem> geo0;
    for (u32 t = 0; t < cfg_.ttis; ++t) {
      const ran::SlotWorkload slot = gen.next_slot();
      ref += reference_slot_errors(slot, cfg_.traffic.groups);
      for (const ran::Allocation& a : slot.allocations)
        if (a.group == 0 && geo0.size() < space_.cores_per_cluster.back())
          geo0.insert(geo0.end(), a.batch.problems.begin(), a.batch.problems.end());
    }
    bool ber_ok = !first_.empty();
    bool golden_ok = !first_.empty();
    std::map<kern::Precision, std::pair<u64, u64>> by_prec;  // errors, bits
    for (const dse::PointMetrics& m : first_) {
      const double ref_ber = m.bits == 0 ? 0.0 : static_cast<double>(ref) / m.bits;
      ber_ok = ber_ok && std::abs(m.dut_ber() - ref_ber) <= ber_tolerance(m.point.prec);
      golden_ok = golden_ok && std::abs(m.golden_ber() - ref_ber) <= 1e-3;
      by_prec[m.point.prec].first += m.errors;
      by_prec[m.point.prec].second += m.bits;
    }
    L.check("dse: every point's DUT BER within tolerance of the reference detector",
            ber_ok);
    L.check("dse: golden BER within 1e-3 of the reference detector", golden_ok);
    const double ref_ber =
        first_.empty() || first_[0].bits == 0 ? 0.0 : double(ref) / first_[0].bits;
    for (const auto& [prec, eb] : by_prec)
      L.note(sim::strf("ber dse %s: DUT %.5f vs reference %.5f",
                       std::string(kern::name_of(prec)).c_str(),
                       eb.second == 0 ? 0.0 : double(eb.first) / eb.second, ref_ber));

    // Pareto front: recompute dominance independently of dse::dominates.
    const std::vector<u32> front = dse::pareto_front(first_, dse::default_objectives());
    const auto obj = [&](const dse::PointMetrics& m) {
      return std::array<double, 3>{static_cast<double>(m.point.total_cores()),
                                   m.latency_seconds(cfg_.clock_hz), m.dut_ber()};
    };
    const auto dom = [&](const dse::PointMetrics& a, const dse::PointMetrics& b) {
      const auto x = obj(a);
      const auto y = obj(b);
      bool strict = false;
      for (size_t k = 0; k < x.size(); ++k) {
        if (x[k] > y[k]) return false;
        strict = strict || x[k] < y[k];
      }
      return strict;
    };
    std::vector<bool> on_front(first_.size(), false);
    for (const u32 i : front) on_front.at(i) = true;
    bool front_ok = !front.empty();
    for (size_t i = 0; i < first_.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < first_.size() && !dominated; ++j)
        dominated = j != i && dom(first_[j], first_[i]);
      front_ok = front_ok && dominated != on_front[i];
    }
    L.check("dse: the front is exactly the non-dominated set (recomputed)", front_ok);
    L.note(sim::strf("dse front: %zu of %zu points", front.size(), first_.size()));

    for (const u32 cores : space_.cores_per_cluster)
      for (const kern::Precision prec : space_.precisions)
        check_uarch(L, sim::strf("dse 4x4 %u cores %s", cores, std::string(kern::name_of(prec)).c_str()),
                    dse::cluster_for_cores(cores), cores, cfg_.traffic.groups[0].ntx,
                    cfg_.traffic.groups[0].nrx, prec, geo0);

    L.ops["design_points"].first += rec.attempted;
    L.ops["design_points"].second += rec.failed;
    L.ops["skipped_points"].first += rec.rounds * points;
    L.ops["skipped_points"].second += skipped_;
    u64 det = 0;
    for (const dse::PointMetrics& m : first_) det += m.problems;
    L.ops["detections"].first += rec.rounds * det;
  }

  void traced(RunRecord& rec) override {
    round(rec);  // run_sweep itself: the reference metrics and point walls
    rec.rounds = 2;
    rec.untraced_wall = rec.kinds[0].wall.back();

    // The same sweep driven call by call, as run_sweep makes the calls.
    const double t = now_s();
    std::vector<dse::PointMetrics> replica;
    std::vector<ran::SlotWorkload> slots;
    {
      Span root("timed");
      ran::TrafficGenerator gen(cfg_.traffic);
      u64 golden = 0;
      for (u32 i = 0; i < cfg_.ttis; ++i) {
        {
          Span s("traffic.slot");
          slots.push_back(gen.next_slot());
        }
        Span s("golden.slot");
        golden += dse::golden_slot_errors(slots.back(), cfg_.traffic.groups);
      }
      WarmCache warm;
      for (const dse::DesignPoint& p : space_.enumerate()) {
        Span sp("dse.point");
        dse::PointMetrics m;
        m.point = p;
        m.golden_errors = golden;
        std::unique_ptr<ran::SlotScheduler> sched;
        try {
          sched = warm.build(point_pool(p, cfg_), cfg_.traffic.groups);
        } catch (const SimError&) {
          continue;
        }
        m.batch_cores = sched->layout_for_group(0).num_cores;
        const auto ff0 = sched->fast_forward_stats();
        for (const ran::SlotWorkload& slot : slots) {
          ran::SlotResult res;
          {
            Span s("sched.run_slot");
            res = sched->run_slot(slot);
          }
          m.problems += res.problems;
          m.bits += res.bits;
          m.errors += res.errors;
          m.instructions += res.total_instructions;
          m.reloads += res.total_reloads;
          m.reload_cycles += res.total_reload_cycles;
          for (const u64 busy : res.cluster_busy_cycles) m.busy_cycles += busy;
          if (res.slot_cycles > m.slot_cycles) {
            m.slot_cycles = res.slot_cycles;
            m.worst_slot_bits = res.bits;
          }
          g_trace.count("sched.slots", 1);
          g_trace.count("sched.problems", static_cast<double>(res.problems));
          g_trace.count("sched.reloads", static_cast<double>(res.total_reloads));
        }
        count_ff(ff0, sched->fast_forward_stats(), p.problems_per_core);
        replica.push_back(m);
      }
      Span s("dse.pareto");
      dse::pareto_front(replica, dse::default_objectives());
    }
    rec.traced_wall = now_s() - t;
    rec.untraced_wall = std::min(rec.untraced_wall, untraced_wall([&] { round(rec); }));
    rec.ledger.check("dse: the call-by-call sweep equals run_sweep",
                     same_sweep(first_, replica));

    // One slot of a representative point taken apart layer by layer.
    dse::DesignPoint rep;
    rep.clusters = 1;
    rep.cores_per_cluster = space_.cores_per_cluster.back();
    rep.prec = kern::Precision::k16CDotp;
    rep.problems_per_core = space_.problems_per_core.back();
    ran::SlotScheduler sched(point_pool(rep, cfg_), cfg_.traffic.groups);
    decompose_slot(sched, cfg_.traffic.groups, slots.front(), rec.ledger,
                   "dse " + rep.label());
    check(rec);
  }

 private:
  dse::DesignSpace space_;
  dse::SweepConfig cfg_;
  std::vector<dse::PointMetrics> first_;
  u64 skipped_ = 0;
  u64 mismatches_ = 0;
  u64 failed_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dse(const WorkloadOptions& opt) {
  return std::make_unique<Dse>(opt);
}

}  // namespace e2e
