#include "mac/cell.h"

#include <cmath>

#include "common/error.h"
#include "common/fingerprint.h"
#include "sim/cosim.h"

namespace tsim::mac {

namespace {
// Rng::keyed stream domains of one cell. Disjoint tags keep burst
// transitions, arrival draws and payload generation on independent streams
// no matter how many draws each consumes.
constexpr u64 kCellStream = 0xCE11;
constexpr u64 kBurstInitStream = 0xB125;
constexpr u64 kBurstStream = 0xB127;
constexpr u64 kArrivalStream = 0xA221;
constexpr u64 kPayloadStream = 0xFA7;

/// validate() before any member that derives from the config is built.
const CellConfig& validated(const CellConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// The cell's fault plan: the farm-level FaultConfig re-seeded with the
/// per-cell fault seed, so cells draw independent fault streams.
sim::FaultConfig cell_fault(const CellConfig& cfg) {
  sim::FaultConfig f = cfg.fault;
  f.seed = cfg.fault.cell_fault_seed(cfg.cell);
  return f;
}

/// The cell's cluster-pool config with the fault plan installed. A fault
/// plan set directly on cfg.pool.fault (scheduler-level tests) is left
/// alone when the cell-level plan is disabled.
ran::ClusterPoolConfig pool_with_fault(const CellConfig& cfg) {
  ran::ClusterPoolConfig pool = cfg.pool;
  if (cfg.fault.enabled) pool.fault = cell_fault(cfg);
  return pool;
}
}  // namespace

void BurstConfig::validate() const {
  if (!enabled) return;
  check(duty > 0.0 && duty < 1.0, "BurstConfig: duty must be in (0, 1)");
  check(mean_on_slots >= 1.0, "BurstConfig: mean_on_slots must be >= 1");
  check(arrival_prob > 0.0 && arrival_prob <= 1.0,
        "BurstConfig: arrival_prob must be in (0, 1]");
  check(diurnal_period_ttis >= 0.0, "BurstConfig: negative diurnal period");
  check(diurnal_depth >= 0.0 && diurnal_depth <= 1.0,
        "BurstConfig: diurnal_depth must be in [0, 1]");
}

double BurstConfig::p_on(u64 tti) const {
  // Two-state Markov chain: stationary duty d with P(on->off) = 1/mean_on
  // gives P(off->on) = p_off * d / (1 - d). The diurnal term modulates the
  // on-rate (not the off-rate), so burst lengths stay put while the number
  // of active UEs swells and ebbs over the configured period.
  double p = p_off() * duty / (1.0 - duty);
  if (diurnal_period_ttis > 0.0) {
    const double phase =
        2.0 * M_PI * static_cast<double>(tti) / diurnal_period_ttis;
    p *= 1.0 + diurnal_depth * std::sin(phase);
  }
  return std::min(1.0, std::max(0.0, p));
}

void CellConfig::validate() const {
  check(num_ues >= 1, "CellConfig: need at least one UE");
  check(!groups.empty(), "CellConfig: need at least one UE group");
  check(carrier.num_subcarriers() > 0, "CellConfig: carrier has no subcarriers");
  check(sc_per_pdu >= 1 && sc_per_pdu <= carrier.num_subcarriers(),
        "CellConfig: sc_per_pdu must fit within one symbol");
  check(clock_hz > 0.0, "CellConfig: clock must be positive");
  harq.validate();
  burst.validate();
  pool.validate();
  fault.validate();
  if (fault.enabled && fault.cluster_fail_tti != sim::FaultConfig::kNever) {
    check(fault.cluster_fail_id < pool.num_clusters,
          "CellConfig: fault.cluster_fail_id out of range");
    check(pool.num_clusters >= 2,
          "CellConfig: cluster failure needs a survivor cluster");
  }
}

u64 CellConfig::cell_seed() const {
  return Rng::derive_seed(farm_seed, {kCellStream, cell});
}

Cell::Cell(const CellConfig& cfg)
    : cfg_(validated(cfg)), seed_(cfg.cell_seed()), fault_(cell_fault(cfg)),
      scheduler_(pool_with_fault(cfg), cfg.groups) {
  ues_.reserve(cfg_.num_ues);
  for (u32 ue = 0; ue < cfg_.num_ues; ++ue) {
    const u32 group = ue % static_cast<u32>(cfg_.groups.size());
    ues_.emplace_back(group, cfg_.harq);
    // Initial burst state drawn at the stationary duty so the population
    // starts in steady state rather than ramping from all-on.
    if (cfg_.burst.enabled) {
      Rng rng = Rng::keyed(seed_, {kBurstInitStream, ue});
      ues_.back().on = rng.uniform() < cfg_.burst.duty;
    }
  }
  channels_.reserve(cfg_.groups.size());
  mods_.reserve(cfg_.groups.size());
  for (const ran::UeGroup& g : cfg_.groups) {
    channels_.emplace_back(g.channel, g.nrx, g.ntx);
    mods_.emplace_back(g.qam_order);
  }
}

u64 Cell::pdu_bits(u32 ue) const {
  const ran::UeGroup& g = cfg_.groups[ues_[ue].group];
  return static_cast<u64>(cfg_.sc_per_pdu) * g.ntx *
         mods_[ues_[ue].group].bits_per_symbol();
}

void Cell::update_burst_states(u64 tti) {
  if (!cfg_.burst.enabled || tti == last_burst_tti_) return;
  last_burst_tti_ = tti;
  for (u32 ue = 0; ue < cfg_.num_ues; ++ue) {
    Rng rng = Rng::keyed(seed_, {kBurstStream, tti, ue});
    const double draw = rng.uniform();
    if (ues_[ue].on) {
      if (draw < cfg_.burst.p_off()) ues_[ue].on = false;
    } else {
      if (draw < cfg_.burst.p_on(tti)) ues_[ue].on = true;
    }
  }
}

bool Cell::quiescent() const {
  if (!delayed_.empty() || fault_.any_indication_faults()) return false;
  for (const Ue& ue : ues_) {
    if (ue.on || ue.harq.pending_retx().has_value() ||
        ue.harq.unresolved() != 0)
      return false;
  }
  return true;
}

SlotRequest Cell::build_request(u64 tti) {
  update_burst_states(tti);

  SlotRequest req;
  req.cell = cfg_.cell;
  req.tti = tti;

  const u32 pdus_per_symbol = cfg_.carrier.num_subcarriers() / cfg_.sc_per_pdu;
  const u32 capacity = pdus_per_symbol * cfg_.carrier.symbols_per_slot;
  u32 used = 0;
  const auto place = [&](u32 ue, u32 pid, bool new_data, u32 transmission) {
    PduDescriptor p;
    p.ue = ue;
    p.harq_process = pid;
    p.new_data = new_data;
    p.transmission = transmission;
    p.group = ues_[ue].group;
    p.symbol = used / pdus_per_symbol;
    p.first_subcarrier = (used % pdus_per_symbol) * cfg_.sc_per_pdu;
    p.num_subcarriers = cfg_.sc_per_pdu;
    p.effective_snr_db = phy::Channel::chase_combined_snr_db(
        cfg_.groups[p.group].snr_db, transmission);
    p.pdu_bits = pdu_bits(ue);
    req.pdus.push_back(p);
    ++used;
  };

  // UE visit order rotates by one position per TTI so capacity pressure is
  // spread fairly over the population instead of starving high ids.
  const u32 start = static_cast<u32>(tti % cfg_.num_ues);
  std::vector<u8> granted(cfg_.num_ues, 0);  // one PDU per UE per slot

  // Pass 1: pending retransmissions (highest priority - they hold soft
  // buffers and block their HARQ process until resolved).
  for (u32 k = 0; k < cfg_.num_ues && used < capacity; ++k) {
    const u32 ue = (start + k) % cfg_.num_ues;
    const std::optional<u32> pid = ues_[ue].harq.pending_retx();
    if (!pid.has_value()) continue;
    const u32 transmission = ues_[ue].harq.grant_retx(*pid, tti);
    granted[ue] = 1;
    place(ue, *pid, false, transmission);
  }

  // Pass 2: new data for active UEs with a firing arrival, while capacity
  // lasts. An arrival that finds every HARQ process busy is a stall
  // (counted by the entity); an arrival beyond the slot's capacity is
  // simply not offered this TTI.
  for (u32 k = 0; k < cfg_.num_ues && used < capacity; ++k) {
    const u32 ue = (start + k) % cfg_.num_ues;
    if (granted[ue] != 0 || !ues_[ue].on) continue;
    if (cfg_.burst.enabled && cfg_.burst.arrival_prob < 1.0) {
      Rng rng = Rng::keyed(seed_, {kArrivalStream, tti, ue});
      if (rng.uniform() >= cfg_.burst.arrival_prob) continue;
    }
    const std::optional<u32> pid = ues_[ue].harq.start_new_data(pdu_bits(ue), tti);
    if (!pid.has_value()) continue;  // all processes busy: stall recorded
    granted[ue] = 1;
    place(ue, *pid, true, 1);
  }
  return req;
}

ran::SlotWorkload Cell::build_workload(const SlotRequest& req) const {
  ran::SlotWorkload slot;
  slot.tti = req.tti;
  slot.allocations.reserve(req.pdus.size());
  for (const PduDescriptor& p : req.pdus) {
    // Payload stream keyed by grid identity: any host process generating
    // this (tti, symbol, subcarrier) allocation draws the same bits.
    Rng rng = Rng::keyed(seed_, {kPayloadStream, req.tti, p.symbol,
                                 p.first_subcarrier});
    ran::Allocation a;
    a.group = p.group;
    a.symbol = p.symbol;
    a.first_subcarrier = p.first_subcarrier;
    a.batch = sim::generate_batch(channels_[p.group], mods_[p.group],
                                  cfg_.groups[p.group].ntx, p.num_subcarriers,
                                  p.effective_snr_db, rng);
    slot.allocations.push_back(std::move(a));
  }
  return slot;
}

SlotIndication Cell::run_slot(const SlotRequest& req) {
  SlotIndication ind;
  ind.cell = req.cell;
  ind.tti = req.tti;

  if (req.pdus.empty()) {
    // Idle slot: nothing reaches L1; record an empty result so latency
    // percentiles and miss counts still see one entry per TTI.
    ran::SlotResult empty;
    empty.tti = req.tti;
    results_.push_back(std::move(empty));
    return ind;
  }

  const ran::SlotWorkload slot = build_workload(req);
  ran::SlotResult result = scheduler_.run_slot(slot);
  check(result.allocation_errors.size() == req.pdus.size(),
        "Cell: allocation outcomes do not match the slot request");

  ind.crcs.reserve(req.pdus.size());
  for (size_t i = 0; i < req.pdus.size(); ++i) {
    CrcResult c;
    c.ue = req.pdus[i].ue;
    c.harq_process = req.pdus[i].harq_process;
    c.bit_errors = result.allocation_errors[i];
    c.bits = req.pdus[i].pdu_bits;
    c.crc_pass = c.bit_errors == 0;
    ind.crcs.push_back(c);
  }
  ind.slot_cycles = result.slot_cycles;
  ind.deadline_met = static_cast<double>(result.slot_cycles) / cfg_.clock_hz <=
                     cfg_.carrier.numerology.slot_seconds();

  // Keep a slim copy for the aggregate report: cycle/reload/error totals
  // stay, per-bit payloads and per-batch traces go.
  result.detected_bits.clear();
  result.detected_bits.shrink_to_fit();
  result.trace.clear();
  result.trace.shrink_to_fit();
  results_.push_back(std::move(result));
  return ind;
}

void Cell::apply_indication(const SlotIndication& ind) {
  const bool guarded =
      fault_.any_indication_faults() || cfg_.harq.feedback_timeout_slots > 0;
  for (const CrcResult& c : ind.crcs) {
    check(c.ue < ues_.size(), "Cell: CRC indication for an unknown UE");
    HarqEntity& harq = ues_[c.ue].harq;
    if (guarded) {
      // Stale-feedback guard: a delayed indication must only resolve the
      // attempt it belongs to - the timeout may already have NACKed the
      // attempt (and a later grant re-used the process). On the clean path
      // the attempt's sent TTI always matches, so the guard never fires.
      if (!harq.in_flight(c.harq_process) ||
          harq.sent_tti(c.harq_process) != ind.tti)
        continue;
    }
    harq.on_feedback(c.harq_process, c.crc_pass);
    crc_fail_ += c.crc_pass ? 0 : 1;
  }
}

void Cell::step(u64 tti) {
  // Deliver fault-delayed indications that are due, in insertion order,
  // before this TTI's scheduling decision (their ACKs free HARQ processes
  // the new request can use).
  if (!delayed_.empty()) {
    std::vector<DelayedInd> keep;
    keep.reserve(delayed_.size());
    for (DelayedInd& d : delayed_) {
      if (d.due_tti <= tti) {
        apply_indication(d.ind);
      } else {
        keep.push_back(std::move(d));
      }
    }
    delayed_ = std::move(keep);
  }

  // Fast-forward: a quiescent TTI (diurnal trough) provably runs the whole
  // loop below with zero side effects beyond archiving one empty SlotResult
  // - build_request grants nothing, run_slot never reaches L1, the empty
  // indication resolves nothing, and with nothing in flight the timeout
  // sweep is a no-op. Short-circuit to exactly that archive. Burst
  // transitions still advance first (quiescence is a property of this TTI's
  // post-transition state); the draw is identity-keyed, so the chain is
  // unaffected by which path consumed it.
  if (cfg_.pool.fast_forward) {
    update_burst_states(tti);
    if (quiescent()) {
      ran::SlotResult empty;
      empty.tti = tti;
      results_.push_back(std::move(empty));
      ++ff_idle_ttis_;
      ++ttis_run_;
      return;
    }
  }

  const SlotRequest req = build_request(tti);
  const SlotIndication ind = run_slot(req);

  // FAPI transport fault: this TTI's indication can be lost or postponed
  // (drawn per TTI from the cell's fault stream). The HARQ feedback timeout
  // below absorbs the loss.
  const sim::IndicationFaultDraw draw = sim::draw_indication_fault(fault_, tti);
  if (draw.drop) {
    dropped_ind_ += 1;
  } else if (draw.delay > 0) {
    delayed_ind_ += 1;
    delayed_.push_back(DelayedInd{tti + draw.delay, ind});
  } else {
    apply_indication(ind);
  }

  // Resolve attempts whose feedback is overdue as NACKs (no-op with the
  // timeout disabled).
  if (cfg_.harq.feedback_timeout_slots > 0) {
    for (Ue& ue : ues_) ue.harq.expire_overdue(tti);
  }
  ++ttis_run_;
}

namespace {
constexpr u32 kCellTag = 0x314C4543;  // "CEL1"
}  // namespace

u64 Cell::config_fingerprint() const {
  Fingerprint f;
  f.mix(cfg_.cell, cfg_.farm_seed, cfg_.num_ues, cfg_.sc_per_pdu,
        cfg_.carrier.num_subcarriers(), cfg_.carrier.symbols_per_slot,
        cfg_.clock_hz, cfg_.groups.size());
  for (const ran::UeGroup& g : cfg_.groups)
    f.mix(g.ntx, g.nrx, g.qam_order, g.snr_db, g.channel, g.weight);
  const HarqConfig& h = cfg_.harq;
  f.mix(h.num_processes, h.max_attempts, h.enabled, h.feedback_timeout_slots);
  const BurstConfig& b = cfg_.burst;
  f.mix(b.enabled, b.duty, b.mean_on_slots, b.arrival_prob,
        b.diurnal_period_ttis, b.diurnal_depth);
  const ran::ClusterPoolConfig& p = cfg_.pool;
  f.mix(p.num_clusters, p.prec, p.problems_per_core, p.batch_cores, p.policy);
  const sim::FaultConfig& x = cfg_.fault;
  f.mix(x.enabled, x.seed, x.hart_trap_rate, x.hart_hang_rate, x.l1_flip_rate,
        x.l1_double_bit_fraction, x.ecc, x.cluster_fail_tti,
        x.cluster_fail_id, x.drop_indication_rate, x.delay_indication_rate,
        x.delay_slots);
  return f.value();
}

template <class Self, class Ar>
void Cell::io_state(Self& c, Ar& a) {
  a.io_tag(kCellTag, "Cell");
  a.io_match(c.config_fingerprint(),
             "snapshot was captured under a different cell configuration");
  a.io(c.ttis_run_, c.crc_fail_, c.dropped_ind_, c.delayed_ind_);

  a.io_match(static_cast<u64>(c.ues_.size()), "UE population size mismatch");
  for (auto& ue : c.ues_) {
    a.io_match(ue.group, "UE group assignment mismatch");
    a.io(ue.on, ue.harq);
  }

  a.io_each(c.delayed_, [&](auto& d) {
    a.io(d.due_tti, d.ind.cell, d.ind.tti, d.ind.slot_cycles,
         d.ind.deadline_met);
    a.io_each(d.ind.crcs, [&](auto& r) {
      a.io(r.ue, r.harq_process, r.crc_pass, r.bit_errors, r.bits);
      a.expect(r.ue < c.ues_.size(), "delayed indication targets unknown UE");
    });
  });

  a.io_each(c.results_, [&a](auto& s) { a.io(s); });
  a.io(c.scheduler_);
}

void Cell::save_state(sim::SnapshotWriter& w) const { io_state(*this, w); }

void Cell::restore_state(sim::SnapshotReader& r) { io_state(*this, r); }

CellReport Cell::report() const {
  CellReport rep;
  rep.cell = cfg_.cell;
  rep.ues = cfg_.num_ues;
  rep.ttis = ttis_run_;
  for (const Ue& ue : ues_) {
    const HarqStats& s = ue.harq.stats();
    rep.harq.new_tx += s.new_tx;
    rep.harq.retx += s.retx;
    rep.harq.acks += s.acks;
    rep.harq.drops += s.drops;
    rep.harq.stalls += s.stalls;
    rep.harq.timeouts += s.timeouts;
    rep.harq.offered_bits += s.offered_bits;
    rep.harq.delivered_bits += s.delivered_bits;
    rep.harq.dropped_bits += s.dropped_bits;
    // Summed per-UE peaks: the cell's worst case if every UE peaked at
    // once (an upper bound; exact per-UE peaks, summed).
    rep.harq.soft_buffer_peak_bits += s.soft_buffer_peak_bits;
    rep.unresolved += ue.harq.unresolved();
  }
  rep.pdus = rep.harq.transmissions();
  rep.crc_fail = crc_fail_;

  const ran::AggregateReport agg =
      ran::aggregate_report(results_, cfg_.carrier, cfg_.clock_hz);
  rep.bits = agg.total_bits;
  rep.errors = agg.total_errors;
  rep.slots = agg.slots;
  rep.misses = agg.misses;
  rep.worst_cycles = agg.worst_cycles;
  rep.p50_cycles = agg.p50_cycles;
  rep.p99_cycles = agg.p99_cycles;
  rep.reloads = agg.reloads;
  rep.reload_cycles = agg.reload_cycles;
  rep.dropped_ind = dropped_ind_;
  rep.delayed_ind = delayed_ind_;
  rep.degraded_slots = agg.degraded_slots;
  rep.hart_faults = agg.hart_faults;
  rep.ecc_corrected = agg.ecc_corrected;
  rep.ecc_detected = agg.ecc_detected;
  rep.ecc_silent = agg.ecc_silent;
  return rep;
}

}  // namespace tsim::mac
