// Deterministic fault injection: the knobs and keyed-stream draws that turn
// hart traps, stuck cores, L1 bit upsets, cluster loss, lost FAPI feedback
// and host worker failure into first-class, bit-reproducible simulation
// inputs (carrier-grade uplinks treat all of these as operating conditions,
// not exceptions).
//
// Every fault is scheduled from a stateless Rng::keyed stream keyed by
// (fault seed, site tag, time): the same (config, seed) always injects the
// same faults at the same places, no matter which host thread, shard or
// retry attempt evaluates the site - so a faulted scenario can be re-run,
// bisected, or swept exactly like a traffic seed. Layer hooks:
//
//   ISS       Machine::inject_hart_fault schedules a transient trap or a
//             stuck-hart hang at (hart, instret); the scheduler draws the
//             (hart, instret, kind) per batch run from kFaultHartStream.
//   L1        apply_l1_faults flips bits in the staged operand words, with
//             an optional SECDED ECC model: single-bit upsets are corrected
//             (counted, data intact), double-bit upsets are detected but
//             corrupt the word, ECC-off upsets corrupt silently. Counters
//             flow SlotResult -> CellReport -> farm wire format.
//   cluster   FaultConfig::cluster_fail_tti kills one cluster of the pool
//             from that TTI on; SlotScheduler reassigns its batches to the
//             survivors (locality-aware), flags the slot degraded, and the
//             deadline accounting carries the impact.
//   FAPI      drop/delay draws (kFaultIndStream) lose or postpone a slot's
//             CRC indication; HARQ absorbs the loss via the per-process
//             feedback timeout (HarqConfig::feedback_timeout_slots).
//   host      HostFaultConfig crashes, stalls or garbles a farm shard
//             worker to exercise the supervising runner in mac/farm.h.
//
// The master switch is FaultConfig::enabled: when false every hook above is
// a single always-false branch on a cold path, so fault support costs
// nothing on clean runs (pinned by bench_iss_mips --guard in CI).
#pragma once

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tera/memory.h"

namespace tsim::sim {

// Keyed-stream site tags of the fault domain (disjoint from every traffic
// tag in src/mac/cell.cpp; the fault seed is further derived per cell).
constexpr u64 kFaultCellStream = 0xFA117CE1;  // per-cell fault-seed derivation
constexpr u64 kFaultHartStream = 0xFA117A27;  // ISS trap/hang draws
constexpr u64 kFaultFlipStream = 0xFA117F11;  // L1 bit-upset draws
constexpr u64 kFaultIndStream = 0xFA1171D0;   // FAPI drop/delay draws

struct FaultConfig {
  static constexpr u32 kNever = ~0u;

  bool enabled = false;  // master switch: false = all hooks compiled to a cold branch
  u64 seed = 0xF417;     // fault stream seed, independent of the traffic seed

  // (a) ISS hart faults, drawn once per batch run.
  double hart_trap_rate = 0.0;  // P(one transient hart trap | batch run)
  double hart_hang_rate = 0.0;  // P(one stuck hart | batch run)

  // (b) L1 word bit upsets, drawn per batch run after operand staging.
  double l1_flip_rate = 0.0;          // expected upset events per batch run
  double l1_double_bit_fraction = 0.25;  // P(2-bit upset | upset event)
  bool ecc = true;                    // SECDED model on the L1 words

  // (c) whole-cluster failure: cluster `cluster_fail_id` is dead from TTI
  // `cluster_fail_tti` onward (kNever = no cluster failure).
  u32 cluster_fail_tti = kNever;
  u32 cluster_fail_id = 0;

  // (d) FAPI SlotIndication faults, drawn once per TTI.
  double drop_indication_rate = 0.0;   // P(indication lost | TTI)
  double delay_indication_rate = 0.0;  // P(indication delayed | TTI)
  u32 delay_slots = 2;                 // delivery delay of a delayed indication

  /// True when any ISS/L1 hook must run inside a batch run.
  bool any_batch_faults() const {
    return enabled && (hart_trap_rate > 0.0 || hart_hang_rate > 0.0 ||
                       l1_flip_rate > 0.0);
  }
  /// True when cluster `c` is dead at TTI `tti`.
  bool cluster_dead(u64 tti, u32 c) const {
    return enabled && cluster_fail_tti != kNever && tti >= cluster_fail_tti &&
           c == cluster_fail_id;
  }
  /// True when any FAPI indication fault can fire.
  bool any_indication_faults() const {
    return enabled &&
           (drop_indication_rate > 0.0 || delay_indication_rate > 0.0);
  }

  /// The per-cell fault seed: cells draw independent fault streams from one
  /// farm-level fault seed, mirroring CellConfig::cell_seed().
  u64 cell_fault_seed(u32 cell) const {
    return Rng::derive_seed(seed, {kFaultCellStream, cell});
  }

  void validate() const {
    const auto rate = [](double r, const char* what) {
      check(r >= 0.0 && r <= 1.0,
            std::string("FaultConfig: ") + what + " must be in [0, 1]");
    };
    rate(hart_trap_rate, "hart_trap_rate");
    rate(hart_hang_rate, "hart_hang_rate");
    rate(l1_double_bit_fraction, "l1_double_bit_fraction");
    rate(drop_indication_rate, "drop_indication_rate");
    rate(delay_indication_rate, "delay_indication_rate");
    check(l1_flip_rate >= 0.0, "FaultConfig: l1_flip_rate must be >= 0");
    check(delay_slots >= 1, "FaultConfig: delay_slots must be >= 1");
  }
};

/// One drawn ISS hart fault (see draw_hart_fault).
struct HartFaultDraw {
  bool fire = false;
  u32 hart = 0;
  u64 at_instret = 0;  // applied when the hart reaches this retired count
  bool hang = false;   // false = transient trap, true = stuck hart
};

/// Window of the scheduled fault instret: small enough that any real kernel
/// run reaches it, so configured rates translate into observed faults.
constexpr u64 kHartFaultInstretWindow = 4096;

/// Draws at most one trap and one hang for a batch run, keyed by
/// (fault seed, site, tti, batch). `index` distinguishes the trap (0) and
/// hang (1) draws; each returns an independent HartFaultDraw.
inline HartFaultDraw draw_hart_fault(const FaultConfig& cfg, u64 tti,
                                     u64 batch, u32 num_harts, bool hang) {
  HartFaultDraw d;
  const double rate = hang ? cfg.hart_hang_rate : cfg.hart_trap_rate;
  if (!cfg.enabled || rate <= 0.0 || num_harts == 0) return d;
  Rng rng = Rng::keyed(cfg.seed,
                       {kFaultHartStream, tti, batch, hang ? u64{1} : u64{0}});
  if (rng.uniform() >= rate) return d;
  d.fire = true;
  d.hang = hang;
  d.hart = static_cast<u32>(rng.below(num_harts));
  d.at_instret = 1 + rng.below(kHartFaultInstretWindow);
  return d;
}

/// SECDED ECC outcome counters of one L1 upset pass.
struct EccCounts {
  u64 corrected = 0;  // single-bit upsets scrubbed by SECDED (data intact)
  u64 detected = 0;   // double-bit upsets flagged but corrupting
  u64 silent = 0;     // upsets with ECC off: undetected corruption

  u64 events() const { return corrected + detected + silent; }
  void merge(const EccCounts& o) {
    corrected += o.corrected;
    detected += o.detected;
    silent += o.silent;
  }
};

/// Applies the batch run's L1 bit upsets to the first `l1_words` interleaved
/// words of `mem` (the staged operand region), keyed by (fault seed, site,
/// tti, batch). Event count is floor(rate) plus a Bernoulli of the fraction;
/// each event picks a word and bit uniformly, and is a double-bit upset with
/// l1_double_bit_fraction probability. With ECC on, single-bit events are
/// corrected in place (counted, word untouched); double-bit events and every
/// ECC-off event flip the drawn bits. Word addresses are interleaved-region
/// byte addresses (word w at address 4*w, see tera/addr_map.h).
inline EccCounts apply_l1_faults(tera::ClusterMemory& mem, u32 l1_words,
                                 const FaultConfig& cfg, u64 tti, u64 batch) {
  EccCounts counts;
  if (!cfg.enabled || cfg.l1_flip_rate <= 0.0 || l1_words == 0) return counts;
  Rng rng = Rng::keyed(cfg.seed, {kFaultFlipStream, tti, batch});
  const double whole = std::floor(cfg.l1_flip_rate);
  u64 events = static_cast<u64>(whole);
  if (rng.uniform() < cfg.l1_flip_rate - whole) ++events;
  for (u64 e = 0; e < events; ++e) {
    const u32 word = static_cast<u32>(rng.below(l1_words));
    const u32 bit = static_cast<u32>(rng.below(32));
    const bool double_bit = rng.uniform() < cfg.l1_double_bit_fraction;
    // Second bit of a double upset: distinct from the first by construction.
    const u32 bit2 = (bit + 1 + static_cast<u32>(rng.below(31))) % 32;
    if (cfg.ecc && !double_bit) {
      counts.corrected += 1;  // SECDED corrects the single-bit upset
      continue;
    }
    const u32 addr = word * 4;
    u32 v = mem.host_read_word(addr) ^ (1u << bit);
    if (double_bit) v ^= (1u << bit2);
    mem.host_write_words(addr, std::span<const u32>(&v, 1));
    if (cfg.ecc) {
      counts.detected += 1;  // double-bit: detected, not correctable
    } else {
      counts.silent += 1;
    }
  }
  return counts;
}

/// One drawn FAPI indication fault (see draw_indication_fault).
struct IndicationFaultDraw {
  bool drop = false;
  u32 delay = 0;  // 0 = deliver in the same TTI
};

/// Draws the fate of TTI `tti`'s SlotIndication: dropped, delayed by
/// delay_slots, or delivered normally. Drop wins over delay when both fire.
inline IndicationFaultDraw draw_indication_fault(const FaultConfig& cfg,
                                                 u64 tti) {
  IndicationFaultDraw d;
  if (!cfg.any_indication_faults()) return d;
  Rng rng = Rng::keyed(cfg.seed, {kFaultIndStream, tti});
  if (cfg.drop_indication_rate > 0.0 &&
      rng.uniform() < cfg.drop_indication_rate) {
    d.drop = true;
    return d;
  }
  if (cfg.delay_indication_rate > 0.0 &&
      rng.uniform() < cfg.delay_indication_rate) {
    d.delay = cfg.delay_slots;
  }
  return d;
}

/// Host-level shard fault injection for the supervising farm runner: these
/// faults live entirely in the worker harness (the simulated cells are
/// untouched), so a retried or inline-fallback shard reproduces its reports
/// byte-identically - the property the recovery contract and CI pin.
struct HostFaultConfig {
  static constexpr u32 kNone = ~0u;

  u32 crash_shard = kNone;   // worker _exits mid-stream with a partial frame
  u32 stall_shard = kNone;   // worker hangs before writing (needs a timeout)
  u32 garble_shard = kNone;  // worker emits a truncated frame and exits 0
  /// Faults fire only while the shard's attempt number is <= this, so a
  /// bounded retry deterministically recovers (attempt numbers are part of
  /// the injection site, not wall-clock luck).
  u32 fault_attempts = 1;

  bool any() const {
    return crash_shard != kNone || stall_shard != kNone || garble_shard != kNone;
  }
  /// True when `kind_shard` faults shard `shard` on 1-based `attempt`.
  bool fires(u32 kind_shard, u32 shard, u32 attempt) const {
    return kind_shard == shard && attempt <= fault_attempts;
  }
};

}  // namespace tsim::sim
