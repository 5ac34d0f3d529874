// One gNB cell of the farm: a persistent UE population (HARQ entities +
// on/off burst arrival state) closed-loop against the L1 slot engine.
//
// Per TTI the cell
//   1. builds a FAPI-style SlotRequest (build_request): retransmissions
//      first (lowest HARQ process id, UE order rotated per TTI for
//      fairness), then new data for UEs whose burst process is "on" and
//      whose arrival draw fires, packed symbol-major into the carrier grid
//      at sc_per_pdu subcarriers per PDU until capacity runs out;
//   2. expands the request into a ran::SlotWorkload (build_workload): one
//      Allocation per PDU, generated at the PDU's Chase-combined effective
//      SNR from an Rng stream keyed by (cell seed, tti, symbol, subcarrier)
//      - identity, not draw order, so any shard reproduces the same bits;
//   3. runs it on the cell's own ran::SlotScheduler cluster pool and folds
//      SlotResult::allocation_errors into a SlotIndication (run_slot);
//   4. feeds the CRC outcomes back into the UEs' HARQ processes
//      (apply_indication) - ACK frees the process, NACK retransmits at
//      boosted SNR or drops after the attempt budget.
//
// Retransmission modelling: a retransmission is a fresh realization of the
// block (bits, channel, noise) at the combined effective SNR. Chase
// combining is captured in the success statistics of each attempt, not by
// carrying soft values across slots through the bit-true detector.
//
// Everything the cell does is a deterministic function of (CellConfig,
// tti): burst transitions, arrivals and payloads use Rng::keyed streams and
// the scheduler's accounting is host-thread-invariant, so a cell simulated
// in any farm shard (or any host process) produces bit-identical reports.
#pragma once

#include <vector>

#include "mac/fapi.h"
#include "mac/harq.h"
#include "ran/deadline.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"

namespace tsim::mac {

/// Per-UE on/off burst arrival process, layered on the slot engine's
/// Poisson path: while "on" a UE offers new data with arrival_prob per slot
/// (Bernoulli thinning - the aggregate arrival stream stays Poisson-like),
/// while "off" only pending retransmissions go out. State transitions form
/// a two-state Markov chain with the configured duty cycle and mean burst
/// length; an optional diurnal term modulates the on-rate over TTIs.
struct BurstConfig {
  bool enabled = false;        // false: every UE offers new data every slot
  double duty = 0.5;           // stationary fraction of slots a UE is on
  double mean_on_slots = 8.0;  // expected burst length (slots)
  double arrival_prob = 1.0;   // P(new transport block | on) per slot
  double diurnal_period_ttis = 0.0;  // 0 = no diurnal modulation
  double diurnal_depth = 0.0;  // fractional swing of the on-rate, in [0, 1]

  void validate() const;
  /// P(off -> on) at `tti`, including the diurnal modulation.
  double p_on(u64 tti) const;
  /// P(on -> off) per slot: 1 / mean burst length.
  double p_off() const { return 1.0 / mean_on_slots; }
};

struct CellConfig {
  u32 cell = 0;
  u64 farm_seed = 0xFA21;
  u32 num_ues = 64;     // persistent UEs; service class = ue % groups.size()
  u32 sc_per_pdu = 4;   // allocation width (subcarriers) of one PDU
  phy::CarrierConfig carrier;             // callers shrink this for soaks
  std::vector<ran::UeGroup> groups;       // service classes (geometry/QAM/SNR)
  HarqConfig harq;
  BurstConfig burst;
  ran::ClusterPoolConfig pool;
  double clock_hz = 1e9;
  /// Farm-level fault plan (sim/fault.h). When enabled it is re-seeded per
  /// cell (cell_fault_seed) and installed into the cell's cluster pool, so
  /// every cell draws independent fault streams from one farm-level knob;
  /// FAPI indication faults are drawn from the same per-cell seed.
  sim::FaultConfig fault;

  void validate() const;
  /// The cell's deterministic seed: keyed by (farm_seed, cell) only, so a
  /// farm shard reconstructs it from the shared config without coordination.
  u64 cell_seed() const;
};

/// Integer-only per-cell aggregate. Every field is an exact count (or cycle
/// total), so a report round-trips bit-identically through the farm's shard
/// frame and JSON rows - the derived rates live in accessors, not fields.
/// for_each_field below is the one list of the fields: a new counter needs
/// a line here and a line there.
struct CellReport {
  u32 cell = 0;
  u32 ues = 0;
  u32 ttis = 0;
  HarqStats harq;          // summed over the cell's UEs
  u64 pdus = 0;            // PDUs carried to L1 (= harq.transmissions())
  u64 crc_fail = 0;        // transmissions whose CRC failed
  u64 unresolved = 0;      // blocks still awaiting feedback at end of run
  u64 bits = 0;            // detector payload bits over all slots
  u64 errors = 0;          // detector bit errors over all slots
  u64 slots = 0;           // slots processed (== ttis)
  u64 misses = 0;          // slots over the TTI deadline
  u64 worst_cycles = 0;
  u64 p50_cycles = 0;
  u64 p99_cycles = 0;
  u64 reloads = 0;
  u64 reload_cycles = 0;
  // Fault-injection outcome (all zero with faults off; harq.timeouts carries
  // the feedback-timeout count).
  u64 dropped_ind = 0;     // FAPI SlotIndications lost
  u64 delayed_ind = 0;     // FAPI SlotIndications delivered late
  u64 degraded_slots = 0;  // slots run degraded (dead cluster / failed batch)
  u64 hart_faults = 0;     // injected ISS hart faults that fired
  u64 ecc_corrected = 0;   // SECDED single-bit L1 upsets scrubbed
  u64 ecc_detected = 0;    // double-bit L1 upsets detected (corrupting)
  u64 ecc_silent = 0;      // ECC-off L1 upsets (silent corruption)

  double residual_bler() const { return harq.residual_bler(); }
  double retx_fraction() const { return harq.retx_fraction(); }
  double crc_fail_fraction() const {
    return pdus == 0 ? 0.0
                     : static_cast<double>(crc_fail) / static_cast<double>(pdus);
  }
  /// Delivered MAC throughput over the simulated wall time, in Mb/s.
  double delivered_mbps(double tti_seconds) const {
    return ttis == 0 ? 0.0
                     : static_cast<double>(harq.delivered_bits) /
                           (static_cast<double>(ttis) * tti_seconds) / 1e6;
  }

  bool operator==(const CellReport&) const = default;
};

/// How FarmResult::total() merges a field across cells.
enum class FieldMerge : u8 {
  kSum,  // counters add up
  kMax,  // cells run concurrently on independent hardware: the worst cell
  kId,   // identity, left at 0 in the total
};

/// The one list of CellReport's fields, in JSON key order. Calls
/// f(name, field, merge) once per field, where `field` is a reference into
/// `r` (u32 or u64; const when R is). The farm's row schema
/// (cell_report_header/row/from_row), FarmResult::total() and the shard
/// frame codec are all loops over it.
template <class R, class F>
void for_each_field(R& r, F&& f) {
  f("cell", r.cell, FieldMerge::kId);
  f("ues", r.ues, FieldMerge::kSum);
  f("ttis", r.ttis, FieldMerge::kMax);
  f("pdus", r.pdus, FieldMerge::kSum);
  f("new_tx", r.harq.new_tx, FieldMerge::kSum);
  f("retx", r.harq.retx, FieldMerge::kSum);
  f("acks", r.harq.acks, FieldMerge::kSum);
  f("drops", r.harq.drops, FieldMerge::kSum);
  f("stalls", r.harq.stalls, FieldMerge::kSum);
  f("crc_fail", r.crc_fail, FieldMerge::kSum);
  f("offered_bits", r.harq.offered_bits, FieldMerge::kSum);
  f("delivered_bits", r.harq.delivered_bits, FieldMerge::kSum);
  f("dropped_bits", r.harq.dropped_bits, FieldMerge::kSum);
  // Summed, not max'd: farm-wide soft-buffer provisioning.
  f("soft_peak_bits", r.harq.soft_buffer_peak_bits, FieldMerge::kSum);
  f("unresolved", r.unresolved, FieldMerge::kSum);
  f("bits", r.bits, FieldMerge::kSum);
  f("errors", r.errors, FieldMerge::kSum);
  f("slots", r.slots, FieldMerge::kSum);
  f("misses", r.misses, FieldMerge::kSum);
  f("worst_cycles", r.worst_cycles, FieldMerge::kMax);
  f("p50_cycles", r.p50_cycles, FieldMerge::kMax);
  f("p99_cycles", r.p99_cycles, FieldMerge::kMax);
  f("reloads", r.reloads, FieldMerge::kSum);
  f("reload_cycles", r.reload_cycles, FieldMerge::kSum);
  f("timeouts", r.harq.timeouts, FieldMerge::kSum);
  f("dropped_ind", r.dropped_ind, FieldMerge::kSum);
  f("delayed_ind", r.delayed_ind, FieldMerge::kSum);
  f("degraded_slots", r.degraded_slots, FieldMerge::kSum);
  f("hart_faults", r.hart_faults, FieldMerge::kSum);
  f("ecc_corrected", r.ecc_corrected, FieldMerge::kSum);
  f("ecc_detected", r.ecc_detected, FieldMerge::kSum);
  f("ecc_silent", r.ecc_silent, FieldMerge::kSum);
}

class Cell {
 public:
  explicit Cell(const CellConfig& cfg);

  /// MAC scheduling decision for `tti` (mutates HARQ/burst state: grants
  /// mark transmissions in flight).
  SlotRequest build_request(u64 tti);
  /// Expands a request into the L1 workload (pure; keyed RNG streams).
  ran::SlotWorkload build_workload(const SlotRequest& req) const;
  /// Runs the workload on the cell's cluster pool and builds the CRC
  /// indication from the per-allocation outcomes.
  SlotIndication run_slot(const SlotRequest& req);
  /// Feeds CRC outcomes back into the UEs' HARQ processes.
  void apply_indication(const SlotIndication& ind);

  /// One full closed-loop TTI: request -> workload -> L1 -> indication ->
  /// HARQ feedback.
  void step(u64 tti);

  CellReport report() const;
  /// Slim per-slot results (detected bits stripped) for AggregateReport.
  const std::vector<ran::SlotResult>& slot_results() const { return results_; }
  const CellConfig& config() const { return cfg_; }
  /// TTIs stepped so far == the TTI the next step() call should receive.
  u32 ttis_run() const { return ttis_run_; }

  // ---- fast-forward observability (pool.fast_forward) ----
  /// Quiescent TTIs skipped wholesale by step()'s fast path (always 0 with
  /// fast_forward off). Purely observational: the archived per-slot state of
  /// a skipped TTI is bit-identical to the cycle-by-cycle path.
  u64 ff_idle_ttis() const { return ff_idle_ttis_; }
  /// Batch shrink statistics from the cell's scheduler.
  ran::SlotScheduler::FastForwardStats ff_batch_stats() const {
    return scheduler_.fast_forward_stats();
  }

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Identity of the configuration a snapshot belongs to (a Fingerprint,
  /// common/fingerprint.h, of every parameter that shapes the trajectory).
  /// restore_state refuses a payload captured under a different
  /// fingerprint, so a snapshot from another seed/carrier/fault plan fails
  /// loudly instead of restoring wrong.
  u64 config_fingerprint() const;
  /// Serializes the cell's complete closed-loop state at a TTI boundary:
  /// UE populations (burst state + HARQ processes/soft-buffer bookkeeping,
  /// in-flight attempts and their feedback timers included), fault-delayed
  /// indications, the per-slot result history the report percentiles read,
  /// the cumulative counters, and the scheduler (cluster machines +
  /// program residency). Traffic/arrival/payload RNG streams are keyed by
  /// identity (seed, tti, ue, ...) and carry no position - restore
  /// re-derives them exactly, so nothing RNG-shaped is serialized.
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores into a freshly constructed Cell of the same configuration.
  /// Stepping the restored cell from ttis_run() onward is bit-identical to
  /// the uninterrupted run (tests/snapshot_test.cpp pins this byte-for-
  /// byte). Throws sim::SnapshotError on any mismatch or corruption.
  void restore_state(sim::SnapshotReader& r);

 private:
  struct Ue {
    u32 group = 0;
    bool on = true;        // burst state (always true when bursts disabled)
    HarqEntity harq;
    explicit Ue(u32 g, const HarqConfig& h) : group(g), harq(h) {}
  };

  /// Payload bits of one PDU of UE `ue` (sc_per_pdu problems x ntx layers x
  /// bits/symbol of the UE's constellation).
  u64 pdu_bits(u32 ue) const;
  /// Advances every UE's on/off Markov chain to `tti`. Guarded so the
  /// transition applies exactly once per TTI (the fast-forward quiescence
  /// probe and build_request may both ask for the same TTI): the chain draw
  /// is keyed by (seed, tti, ue) but the state update is not idempotent.
  void update_burst_states(u64 tti);
  /// True when this TTI provably builds an empty request with zero side
  /// effects: every UE off (after this TTI's burst transitions), no pending
  /// retransmission, nothing in flight awaiting feedback, no fault-delayed
  /// indication queued and no indication faults configured.
  bool quiescent() const;

  CellConfig cfg_;
  u64 seed_ = 0;  // cell_seed(), cached
  /// cfg_.fault re-seeded with the per-cell fault seed (drives the FAPI
  /// indication draws; the pool carries its own copy).
  sim::FaultConfig fault_;
  std::vector<Ue> ues_;
  std::vector<phy::Channel> channels_;   // one per group
  std::vector<phy::QamModulator> mods_;  // one per group
  ran::SlotScheduler scheduler_;
  std::vector<ran::SlotResult> results_;
  /// Indications delayed by the fault plan, awaiting their delivery TTI
  /// (flushed in insertion order at the start of each step).
  struct DelayedInd {
    u64 due_tti = 0;
    SlotIndication ind;
  };
  std::vector<DelayedInd> delayed_;
  u64 crc_fail_ = 0;
  u64 dropped_ind_ = 0;
  u64 delayed_ind_ = 0;
  u32 ttis_run_ = 0;
  /// Last TTI whose burst transitions were applied (update_burst_states
  /// guard). Not serialized: snapshots land on TTI boundaries, so the
  /// restored default never matches the next TTI stepped.
  u64 last_burst_tti_ = ~0ull;
  u64 ff_idle_ttis_ = 0;  // quiescent TTIs short-circuited by step()

  /// The snapshot field list behind save_state/restore_state.
  template <class Self, class Ar>
  static void io_state(Self& c, Ar& a);
};

}  // namespace tsim::mac
