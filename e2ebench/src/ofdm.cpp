// ofdm_symbol: full-buffer 1638-subcarrier OFDM symbols on one paper-scale
// 1024-core cluster at the pool's default precision, one host thread, for
// 4x4, 8x8 and 16x16 MIMO. Per-size symbol counts give each size about the
// same host time in a round. The same TTIs are detected in every round, so
// every round after the first must reproduce the first one exactly.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "phy/qam.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"
#include "refdet.h"
#include "replay.h"
#include "sim/report.h"
#include "workloads.h"

namespace e2e {

using namespace tsim;

namespace {

struct SizeSpec {
  u32 n = 4;            // ntx = nrx
  u32 per_round = 1;    // symbols of this size in one round
};

// Chosen so that each size takes about the same host time per round: one
// 16x16 symbol (~1.5 s) costs about as much as 6 8x8 or 26 4x4 symbols on
// the reference host (see README.md).
constexpr SizeSpec kSizes[] = {{4, 26}, {8, 6}, {16, 1}};

struct SymbolOutcome {
  u64 problems = 0;
  u64 bits = 0;
  u64 errors = 0;
  u64 slot_cycles = 0;
  bool complete = false;  // every subcarrier has its detected bits
  bool operator==(const SymbolOutcome&) const = default;
};

class Ofdm final : public Workload {
 public:
  explicit Ofdm(const WorkloadOptions& opt) : seed_(opt.seed) {
    if (opt.mimo != 0) {
      specs_ = {SizeSpec{opt.mimo, 1}};
    } else {
      specs_.assign(std::begin(kSizes), std::end(kSizes));
    }
  }

  void setup() override {
    sizes_.clear();
    for (const SizeSpec& spec : specs_) {
      auto sz = std::make_unique<Size>();
      sz->spec = spec;
      ran::TrafficConfig tc;
      tc.carrier = phy::CarrierConfig::paper_50mhz();
      tc.carrier.symbols_per_slot = 1;
      tc.groups = {ran::UeGroup{sim::strf("mimo%u", spec.n), spec.n, spec.n, kQam, 15.0,
                                phy::ChannelType::kRayleigh, 1.0}};
      tc.seed = Rng::derive_seed(seed_, {spec.n});
      ran::ClusterPoolConfig pool;
      pool.num_clusters = 1;
      pool.host_threads = 1;
      pool.cluster = tera::TeraPoolConfig::full();
      sz->gen = std::make_unique<ran::TrafficGenerator>(tc);
      {
        Span s("sched.ctor");
        sz->sched = std::make_unique<ran::SlotScheduler>(pool, tc.groups);
      }
      // Warm-up: one batch of the size's program, so translation and
      // first-touch memory are paid here and not in the timed phase.
      ran::SlotWorkload warm = sz->gen->slot(~0ull >> 1);
      const kern::MmseLayout& lay = sz->sched->layout_for_group(0);
      const u32 capacity = lay.num_cores * lay.problems_per_core;
      ran::Allocation& a = warm.allocations.front();
      warm.allocations.resize(1);
      if (a.num_problems() > capacity) {
        a.batch.problems.resize(capacity);
        a.batch.tx_bits.resize(static_cast<size_t>(capacity) * spec.n *
                               phy::QamModulator(kQam).bits_per_symbol());
        a.batch.tx_symbols.resize(static_cast<size_t>(capacity) * spec.n);
      }
      sz->sched->run_slot(warm);
      sizes_.push_back(std::move(sz));
    }
  }

  void round(RunRecord& rec) override {
    if (rec.kinds.empty())
      for (const auto& sz : sizes_)
        rec.kinds.push_back(OpKind{sim::strf("symbol_%ux%u", sz->spec.n, sz->spec.n),
                                   0, {}, {}});
    for (size_t s = 0; s < sizes_.size(); ++s) {
      Size& sz = *sizes_[s];
      for (u32 i = 0; i < sz.spec.per_round; ++i) {
        const double t0 = now_s();
        const double c0 = cpu_s();
        SymbolOutcome out;
        ++rec.attempted;
        try {
          ran::SlotWorkload slot;
          {
            Span sp("traffic.slot");
            slot = sz.gen->slot(i);
          }
          ran::SlotResult res;
          {
            Span sp("sched.run_slot");
            res = sz.sched->run_slot(slot);
          }
          rec.kinds[s].detected += res.problems;
          out.problems = res.problems;
          out.bits = res.bits;
          out.errors = res.errors;
          out.slot_cycles = res.slot_cycles;
          out.complete = res.detected_bits.size() == slot.allocations.size() &&
                         res.detected_bits.front().size() ==
                             slot.allocations.front().batch.tx_bits.size() &&
                         res.failed_batches == 0;
          if (g_trace.enabled) {
            g_trace.count("sched.slots", 1);
            g_trace.count("sched.problems", static_cast<double>(res.problems));
            g_trace.count("sched.reloads", static_cast<double>(res.total_reloads));
          }
        } catch (const SimError& e) {
          ++rec.failed;
          ++failed_symbols_;
          rec.ledger.note(std::string("symbol failed: ") + e.what());
        }
        rec.kinds[s].wall.push_back(now_s() - t0);
        rec.kinds[s].cpu.push_back(cpu_s() - c0);
        if (sz.outcomes.size() < sz.spec.per_round) {
          sz.outcomes.push_back(out);
        } else if (!(sz.outcomes[i] == out)) {
          ++mismatches_;
        }
      }
    }
  }

  void check(RunRecord& rec) override {
    Ledger& L = rec.ledger;
    for (const auto& szp : sizes_) {
      const Size& sz = *szp;
      const std::string label = sim::strf("%ux%u", sz.spec.n, sz.spec.n);
      u64 dut = 0;
      u64 ref = 0;
      u64 bits = 0;
      bool complete = true;
      for (u32 i = 0; i < sz.outcomes.size(); ++i) {
        const SymbolOutcome& o = sz.outcomes[i];
        complete = complete && o.complete && o.problems == kNsc;
        const ran::SlotWorkload slot = sz.gen->slot(i);
        ref += reference_slot_errors(slot, sz.gen->config().groups);
        dut += o.errors;
        bits += o.bits;
      }
      const double ber_dut = bits == 0 ? 0.0 : static_cast<double>(dut) / bits;
      const double ber_ref = bits == 0 ? 0.0 : static_cast<double>(ref) / bits;
      const kern::Precision prec = sz.sched->config().prec;
      L.check(label + ": every subcarrier detected, every DUT run exited", complete);
      L.check(label + ": DUT BER within tolerance of the reference detector",
              std::abs(ber_dut - ber_ref) <= ber_tolerance(prec));
      L.note(sim::strf("ber %s %s: DUT %.5f vs reference %.5f over %llu bits", label.c_str(),
                       std::string(kern::name_of(prec)).c_str(), ber_dut, ber_ref,
                       static_cast<unsigned long long>(bits)));
      const ran::SlotWorkload slot0 = sz.gen->slot(0);
      check_uarch(L, label, sz.sched->config().cluster, 16, sz.spec.n, sz.spec.n, prec,
                  slot0.allocations.front().batch.problems);
    }
    L.check("every round reproduces the first round's detections and cycles",
            mismatches_ == 0);
    L.ops["symbols"].first += rec.attempted;
    L.ops["symbols"].second += failed_symbols_;
    L.ops["detections"].first += rec.attempted * kNsc;
    L.ops["detections"].second += failed_symbols_ * kNsc;
  }

  void traced(RunRecord& rec) override {
    rec.untraced_wall = untraced_wall([&] { round(rec); });
    std::vector<ran::SlotScheduler::FastForwardStats> before;
    for (const auto& sz : sizes_) before.push_back(sz->sched->fast_forward_stats());
    const double t = now_s();
    {
      Span s("timed");
      round(rec);
    }
    rec.traced_wall = now_s() - t;
    for (size_t i = 0; i < sizes_.size(); ++i) {
      const auto after = sizes_[i]->sched->fast_forward_stats();
      count_ff(before[i], after, sizes_[i]->sched->config().problems_per_core);
    }
    rec.untraced_wall = std::min(rec.untraced_wall, untraced_wall([&] { round(rec); }));
    for (const auto& sz : sizes_)
      decompose_slot(*sz->sched, sz->gen->config().groups, sz->gen->slot(0), rec.ledger,
                     sim::strf("%ux%u", sz->spec.n, sz->spec.n));
    rec.rounds = 3;
    check(rec);
  }

 private:
  static constexpr u64 kNsc = 1638;  // paper_50mhz().num_subcarriers()
  static constexpr u32 kQam = 16;

  struct Size {
    SizeSpec spec;
    std::unique_ptr<ran::TrafficGenerator> gen;
    std::unique_ptr<ran::SlotScheduler> sched;
    std::vector<SymbolOutcome> outcomes;  // first round, per symbol
  };

  u64 seed_;
  std::vector<SizeSpec> specs_;
  std::vector<std::unique_ptr<Size>> sizes_;
  u64 mismatches_ = 0;
  u64 failed_symbols_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ofdm(const WorkloadOptions& opt) {
  return std::make_unique<Ofdm>(opt);
}

}  // namespace e2e
