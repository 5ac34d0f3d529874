// The fast ISS machine: N harts over one ClusterMemory, executing a
// predecoded (translated) program with the static-latency timing model.
//
// Run modes mirror Banshee's:
//  - run():           deterministic single-host-thread round-robin.
//  - run_threads(n):  harts sharded over n host threads, synchronizing only
//                     through the DUT program's own atomics and wfi/wake.
//
// Hot-loop design: both run modes schedule only *awake* harts. Each
// scheduler keeps a run list of runnable hart ids; a hart leaves the list
// when it halts or parks in wfi and is re-inserted by the MMIO wake handler
// (run()) or a per-shard wake inbox (run_threads()), so a barrier-heavy
// 1024-hart phase costs O(awake) per pass instead of O(num_harts).
// Within a hart's turn, instructions are retired superblock-at-a-time from
// the TranslationCache (see translation.h): one pc lookup per straight-line
// run, with the ISA-table properties folded into the predecoded entries.
//
// Per-hart cycle estimates depend only on that hart's instruction stream
// plus barrier wake times. Functional results are independent of the host
// scheduling (verified by test); cycle estimates agree up to a few cycles of
// barrier-wake jitter, because which hart's amoadd arrives last - and hence
// whose cycle timestamps the wake - is resolved by the physical race, as on
// the real hardware.
//
// Resident-program cache: load_program() keys programs by content identity
// (iss::program_fingerprint + full word compare) and keeps every program it
// has ever translated resident - translation cache, initial memory image,
// and entry point. Loading a program that is already resident degenerates to
// select_program(): the active translation table is swapped and the image
// rewritten (a memcpy-sized host cost), with NO retranslation; reloading the
// program that is already active is a pure reset_harts(). This makes
// cluster-level program ping-pong (the RAN scheduler switching UE
// geometries between batches) nearly free on the host. Contract: resident
// programs must not store into their own image range if they are to be
// re-selected without an explicit reload - the kernel programs in this repo
// keep all mutable data in L1, while images live in L2.
//
// Structure-of-arrays hart state
// ------------------------------
// The hot per-hart state (pc, cycle, instret, the RAW scoreboard, stall
// counters, wake timestamps, instruction mix) lives in machine-owned
// parallel arrays indexed by hart id (iss::HartArrays, see hart.h); only
// the register file and the rarely-touched flags stay per-lane blocks.
// Scoreboard and mix arrays are register-/class-major, so the per-entry
// arithmetic of a lockstep sweep reads and writes a few unit-stride u64
// column windows. Serial turns and trace hooks run rv semantics through
// iss::HartLane, a thin per-lane view with HartState's field names - the
// state transitions are the same loads and stores as the pre-SoA layout,
// which is what keeps the bit-exactness contract below layout-independent.
// Machine::hart() assembles a value snapshot on demand.
//
// SPMD convergence batching
// -------------------------
// The DUT workloads are SPMD: every hart of a cluster runs the same kernel
// and re-converges at barriers, so at a scheduling-pass boundary most awake
// harts sit at the *same pc*. Both run modes exploit this: when the next
// `kMaxBatchWidth` (or fewer) consecutive harts of the sorted run list share
// a pc, they form a *convergence batch* and the dispatcher executes the
// shared superblock instruction-major, hart-minor - one translation lookup
// and one predecoded-metadata read per SbEntry per *batch* instead of per
// hart. The member sweep dispatches on the (loop-invariant) opcode ONCE per
// entry: hot ops run a three-pass vectorized sweep over the SoA columns -
// pass A computes every member's issue cycle and RAW stall from the
// scoreboard columns, pass B runs the architectural semantics member-by-
// member in member order through a straight-line rv::execute_known kernel
// (decode switch constant-folded away, per-entry invariants hoisted), and
// pass C retires cycle/scoreboard/mix columns. Batches form from
// consecutive entries of a sorted run list, so member lanes are usually
// consecutive hart ids: passes A and C then run as unit-stride column loops
// the compiler auto-vectorizes; after a drop-out the same passes run
// through the member indirection. Everything else takes the generic
// rv::execute with the same single-source semantics. The pass split is
// sound because per-hart timing reads only that hart's own state (the
// timing.h locality contract): reordering pass A across members commutes,
// and pass B keeps the member-order memory accesses that the bit-exactness
// contract pins. Members that fault in pass B still retire pass C (the
// serial path retires timing before the halted check) and drop out after.
// The fp16 ALU ops touch no memory, CSR or fault state, so their pass B
// runs column-wise instead: one vectorized lane kernel (the interpreter's
// own rv::exec_detail::fp16_alu) over the gathered operand words, with the
// lanes it flags (NaN/subnormal results) re-run through execute_known.
//
// Batch invariants (the serial path stays the bit-exactness oracle):
//  - A batch FORMS only from consecutive entries of the run list, all at one
//    pc, each with a full quantum available (under a max_instructions budget
//    a batch needs width*quantum headroom, so the budget cut always lands on
//    a serial turn). Formation order equals list order equals serial visit
//    order.
//  - The first member is the LEADER: it takes an ordinary serial turn
//    (exec_quantum, with the scan position parked on it, so its barrier
//    wakes, parks, and exits behave byte-for-byte like an unbatched turn)
//    that additionally records the sequence of superblock runs it retired.
//  - The FOLLOWERS then replay the leader's trace in lockstep: each SbEntry
//    is retired for every live follower in member order before the next
//    entry. For any memory location, the leader's accesses precede the
//    followers' and followers access it in member order - the serial visit
//    order (an amoadd barrier arrival sequence is preserved exactly).
//    Per-hart timing (compute_issue/retire_timing) reads only that hart's
//    own state and is untouched by batching.
//  - A follower DROPS OUT when it halts or parks in wfi (mid-replay,
//    exactly where its serial turn would have ended) or when its pc leaves
//    the leader's path at a run boundary (a divergent branch outcome). The
//    replay ENDS when the global stop flag is up at a sweep boundary (every
//    live follower then retired exactly one instruction past the stop, like
//    the serial harts scheduled after it), when a wake lands in the run
//    list (run() only), or when the trace is exhausted. A follower that
//    leaves the replay still runnable finishes the REMAINDER of its turn
//    through the unmodified serial exec_quantum, in member order, with the
//    scan position parked on it - so each hart's turn retires exactly the
//    instructions its serial turn would have.
//  - Visit order: the batch occupies consecutive list positions; after the
//    turn the scan continues past the batch, and parked/halted members are
//    erased at their positions - the same list transitions a serial pass
//    performs, in the same order. A quantum that expires mid-superblock
//    simply re-forms the batch at the interior pc next turn.
// Because the leader's turn fully precedes the replay, a stop raised by the
// leader (the exit store of the repo's kernels runs on hart 0, the lowest
// batch position) truncates every follower to the exact serial one-
// instruction tail. Residual (documented) divergence from pure serial
// execution remains only for programs where batch members race peers on a
// shared location within one turn window: a non-leader hart raising the
// exit, two harts storing to the same address inside one superblock, or
// ANY member (leader included) waking a hart whose id falls inside the
// batch's id range - the woken hart is rescheduled after the whole batch
// instead of between the members' turns, so its loads can see member
// stores that a serial interleaving would have ordered after it. The
// kernels in this repo keep per-hart data disjoint and exit from hart 0,
// and the differential tests in iss_test/threading_test enforce exact
// equality of cycles, registers, stalls, and wake timestamps on the
// barrier+MMSE and deadlock workloads. run_threads() batches per shard, so
// a convergence group spanning a shard boundary simply splits at it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "iss/hart.h"
#include "iss/timing.h"
#include "iss/translation.h"
#include "sim/snapshot.h"
#include "tera/memory.h"

namespace tsim::iss {

struct RunResult {
  bool exited = false;    // program stored to the exit MMIO register
  u32 exit_code = 0;
  bool deadlock = false;  // all live harts asleep with nobody to wake them
  u64 instructions = 0;   // total retired across harts this run
};

/// Statistics of the SPMD convergence-batch dispatch (see the header note).
/// Counters accumulate across runs until Machine::reset_batch_stats(); in
/// run_threads() each shard accumulates locally and merges on join.
struct BatchStats {
  u64 lockstep_instructions = 0;  // retired inside lockstep sweeps
  u64 serial_instructions = 0;    // retired by the serial path (incl. finishes)
  u64 batches = 0;                // lockstep turns entered (width >= 2)
  u64 width_sum = 0;              // formation widths, summed
  u64 width_max = 0;
  u64 runs = 0;                   // superblock sweeps executed in lockstep
  u64 run_entries = 0;            // entries swept, summed (avg run length)
  u64 split_divergence = 0;       // lockstep ended: members' pcs diverged
  u64 split_budget = 0;           //   per-member quantum exhausted
  u64 split_wake = 0;             //   a wake landed in the run list (run())
  u64 split_stop = 0;             //   global stop observed mid-batch
  u64 split_drain = 0;            //   members parked/halted down to < 2
  std::vector<u64> width_hist;    // formations by width (index = width)

  double avg_width() const;
  double avg_run_length() const;
  /// Fraction of all retired instructions that took the lockstep path.
  double lockstep_fraction() const;
  /// Smallest width W with >= p (in 0..1) of formations at width <= W.
  u64 width_percentile(double p) const;
  void merge(const BatchStats& other);
};

class Machine {
 public:
  /// Constructs a machine with `active_harts` live cores (0 = all cores of
  /// the cluster configuration).
  Machine(const tera::TeraPoolConfig& cluster, TimingConfig timing = {},
          u32 active_harts = 0);

  tera::ClusterMemory& memory() { return *mem_; }
  const tera::ClusterMemory& memory() const { return *mem_; }

  /// Handle to a resident program (index into this machine's cache).
  using ProgramHandle = u32;
  static constexpr ProgramHandle kNoProgram = ~0u;

  /// Loads the program and resets harts to its "_start" symbol. The program
  /// stays resident: a second load of a content-identical program reuses the
  /// cached translation (see the header comment) and returns the same
  /// handle. Translation happens at most once per distinct program.
  ProgramHandle load_program(const rvasm::Program& prog);

  /// Makes a resident program active: swaps the translation table, restores
  /// the program's initial memory image (skipped when `handle` is already
  /// active), and resets harts to its entry point. No retranslation.
  void select_program(ProgramHandle handle);

  /// Handle of the active program (kNoProgram before any load).
  ProgramHandle active_program() const { return active_; }
  /// Distinct programs held resident by this machine.
  size_t num_resident_programs() const { return resident_.size(); }
  /// Image-restoring program switches performed (cache hits and misses both
  /// count when they rewrite the image; no-op reselects do not).
  u64 program_switches() const { return program_switches_; }

  /// Re-arms all harts at the entry point (keeps memory and translation).
  void reset_harts();

  /// Runs until exit, deadlock, or `max_instructions` (0 = unlimited).
  /// Every field of the RunResult is populated on every return path.
  RunResult run(u64 max_instructions = 0);

  /// Runs with harts sharded across `n_threads` host threads, stopping after
  /// `max_instructions` total retired instructions (0 = unlimited; the
  /// budget is shared across shards and never overshoots).
  RunResult run_threads(u32 n_threads, u64 max_instructions = 0);

  u32 num_harts() const { return soa_.size(); }
  /// Value snapshot of hart `i`, assembled from the SoA state (hart.h).
  Hart hart(u32 i) const { return soa_.snapshot(i); }
  const TimingConfig& timing() const { return timing_; }

  /// Harts per convergence batch, capped to bound the lockstep working set
  /// (member state must stay L1-resident across an instruction sweep).
  static constexpr u32 kMaxBatchWidth = 64;

  /// Enables/disables the convergence-batched SPMD dispatch (default on).
  /// The serial path is the bit-exactness oracle; disabling it is for A/B
  /// benchmarking and the differential tests.
  void set_batching(bool on) { batching_ = on; }
  bool batching() const { return batching_; }
  /// Batch-efficiency counters (see BatchStats). Read between runs only;
  /// counters accumulate only while batching is enabled, so A/B runs with
  /// set_batching(false) leave them untouched.
  const BatchStats& batch_stats() const { return bstats_; }
  void reset_batch_stats();

  // ---- deterministic fault injection (see sim/fault.h) ----
  /// Schedules a fault on `hart`, applied when its retired-instruction count
  /// reaches `at_instret` during a later run(): a transient trap (the hart
  /// halts with trapped set, exactly like an architectural fault) or a
  /// stuck-hart hang (the hart parks forever and ignores wakes, so peers
  /// waiting on it at a barrier deadlock - which run() detects and reports).
  /// Faults persist across reset_harts() (each reset re-arms them, so a
  /// faulted run is re-runnable bit-for-bit) until clear_hart_faults().
  /// Armed faults disable the convergence-batch fast path - the serial
  /// oracle applies them at exact instruction boundaries - and are supported
  /// on the single-threaded run() only (run_threads refuses). A fault whose
  /// at_instret the hart never reaches simply does not fire. When no fault
  /// is armed every hook is one cold branch per scheduler turn: the hot loop
  /// is untouched (pinned by bench_iss_mips --guard).
  void inject_hart_fault(u32 hart, u64 at_instret, bool hang);
  /// Clears every scheduled hart fault (pending and applied).
  void clear_hart_faults();
  /// Faults applied since the last clear_hart_faults()/reset_harts().
  u32 hart_faults_applied() const { return faults_applied_; }
  bool hart_faults_armed() const { return faults_armed_; }

  // ---- event-driven fast-forward (deterministic wake events) ----
  /// Schedules a wake event: hart `hart` (~0u = every hart) is woken at
  /// absolute cycle `at_cycle`, exactly as if a peer's MMIO wake store had
  /// issued at that cycle (wake_cycle = at_cycle; the sleeper resumes at
  /// at_cycle + barrier_wake_cost with the wfi stall charged in full). When
  /// run()'s awake list drains while events are pending, the machine does
  /// NOT spin or report deadlock: it jumps straight to the earliest pending
  /// event in O(1) host work and fires every event scheduled at that cycle -
  /// the timer/DMA-completion quiescence skip for long idle windows. Cycle
  /// accounting is identical to a cycle-by-cycle wait for the same wake.
  /// Events that never find a sleeping hart are dropped at run end.
  /// Single-threaded run() only (run_threads refuses, like hart faults);
  /// reset_harts() clears pending events, and save_state refuses to capture
  /// with events pending (fire or drop them first).
  void schedule_wake_at(u32 hart, u64 at_cycle);
  /// Pending (unfired) wake events.
  size_t pending_wake_events() const { return wake_events_.size(); }
  /// All-asleep quiescence jumps run() performed via pending wake events.
  u64 idle_jumps() const { return idle_jumps_; }

  /// Per-instruction trace hook: called before each instruction executes
  /// with (hart id, pc, decoded instruction). Intended for debugging and
  /// trace tooling; when set, execution takes the per-instruction reference
  /// path instead of the superblock fast path (bit-identical results, see
  /// translation.h). Only meaningful with single-threaded run().
  using TraceFn = std::function<void(u32 hart, u32 pc, const rv::Decoded&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Serializes the machine's complete simulation state: the resident-
  /// program table (base, entry pc and image words - retranslated and
  /// re-bound by program_fingerprint on restore), the active-program
  /// selection, full memory contents, every HartArrays column, per-hart
  /// sleep states, the stop/exit flags, and the hart-fault schedule
  /// including armed-but-unfired entries. Callable only between runs -
  /// run()/run_threads() normalize every hart to a serial instruction
  /// boundary before returning, so there is no in-flight batch or run-list
  /// state to capture (both are rebuilt from hart state on the next run).
  /// Host-only counters (BatchStats) are deliberately excluded: they do not
  /// influence simulation results.
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores a save_state capture into a machine constructed with the same
  /// configuration (hart count and memory geometry are checked). The
  /// resident table is rebuilt deterministically from the serialized
  /// (base, entry, image) triples - translation is a pure function of those
  /// - and each rebuilt program's fingerprint must match the recorded key,
  /// so a corrupt image can never be silently re-bound. Continuing the
  /// restored machine is bit-identical to continuing the original
  /// (tests/snapshot_test.cpp). Throws sim::SnapshotError on any mismatch.
  void restore_state(sim::SnapshotReader& r);

  /// Aggregate retired instructions over all harts.
  u64 total_instructions() const;
  /// Parallel-program cycle estimate: max per-hart cycle count.
  u64 estimated_cycles() const;
  /// Sum of per-hart estimated cycles (single-stream comparisons).
  u64 total_cycles() const;

 private:
  enum class SleepState : u8 { kAwake = 0, kSleeping = 1, kWakePending = 2 };

  /// Why a hart's scheduler turn ended.
  enum class TurnEnd : u8 {
    kBudget = 0,  // quantum/budget exhausted; still runnable
    kAsleep,      // parked in wfi; re-inserted by a wake
    kHalted,      // ebreak / trap; never runs again
    kStopped,     // global stop_ observed (exit or external)
  };

  /// Per-follower outcome of a replay turn (see the header note).
  enum class BatchEnd : u8 {
    kRun = 0,  // replay ended early; finish the turn on the serial path
    kBudget,   // quantum fully consumed in replay; turn over, runnable
    kAsleep,   // parked in wfi during replay
    kHalted,   // ebreak / trap during replay
    kStopped,  // global stop observed; turn over
  };

  /// One superblock run retired by a recorded leader turn.
  struct TraceRun {
    const SbEntry* base;  // first entry of the run
    u32 pc;               // pc of `base` (the followers' convergence check)
    u32 n;                // instructions the leader retired in this run
  };

  /// Shared body of exec_quantum / exec_quantum_record.
  template <bool kRecord>
  u64 exec_quantum_impl(u32 hart_index, u64 budget, TurnEnd& end,
                        std::vector<TraceRun>* trace);
  /// Runs hart `h` for up to `budget` instructions on the superblock fast
  /// path. Returns instructions retired and sets `end`.
  u64 exec_quantum(u32 hart_index, u64 budget, TurnEnd& end);
  /// Same turn, additionally appending the retired superblock runs to
  /// `trace` (the convergence-batch leader path; `trace` must arrive empty).
  u64 exec_quantum_record(u32 hart_index, u64 budget, TurnEnd& end,
                          std::vector<TraceRun>& trace);
  /// Per-instruction reference path (used when a trace hook is set; also the
  /// bit-exactness oracle for the superblock path).
  u64 exec_quantum_traced(u32 hart_index, u64 budget, TurnEnd& end);
  /// Replays a leader trace across followers `ids[0..count)` in lockstep,
  /// instruction-major, hart-minor (see header note). Fills `ends[k]` per
  /// formation index, and for kRun followers the unconsumed turn budget in
  /// `rems[k]`. Returns instructions retired. Does NOT touch any run list -
  /// the caller reconciles membership and finishes kRun followers serially.
  u64 exec_followers_replay(const u32* ids, u32 count, u64 budget,
                            const std::vector<TraceRun>& trace, BatchEnd* ends,
                            u64* rems, BatchStats& stats);
  /// Width of the convergence batch at `list[pos..]`: consecutive harts at
  /// the same pc, capped at `limit`.
  u32 scan_convergent(const std::vector<u32>& list, size_t pos, u32 limit) const;
  /// Shared member-reconcile of a convergence-batch turn (both run modes):
  /// walks the members in formation (= serial visit) order, re-locating
  /// each by id in the sorted `list`, applies its BatchEnd via the two
  /// mode-specific callbacks, and finishes kRun members serially with their
  /// remaining budget. `erase_at(pos, halted)` erases `list[pos]` and does
  /// the mode's accounting (scan-position shift, awake/live counters);
  /// `advance_to(pos)` sets the mode's scan position. Returns instructions
  /// retired by the serial finishes. Defined in machine.cpp (only used
  /// there).
  template <typename EraseFn, typename AdvanceFn>
  u64 reconcile_batch(const u32* ids, u32 width, TurnEnd leader_end,
                      const BatchEnd* follower_ends, const u64* rems,
                      const std::vector<u32>& list, BatchStats& stats,
                      EraseFn&& erase_at, AdvanceFn&& advance_to);

  /// Shared wfi bookkeeping after an instruction entered wfi. Returns true
  /// if the hart is now asleep (turn over), false if a pending wake was
  /// consumed and the hart keeps running.
  bool park_in_wfi(u32 hart_index);
  /// Applies the wake-to-resume cycle accounting when a woken hart is
  /// scheduled again.
  void resume_from_wfi(u32 hart_index);

  void on_exit(u32 code);
  void on_wake(u32 target, u64 waker_cycle);

  /// One resident program: everything needed to reactivate it without
  /// retranslating. unique_ptr keeps addresses stable across cache growth,
  /// so tcache_ can point straight into the active entry.
  struct ResidentProgram {
    u64 key = 0;             // program_fingerprint of the image
    u32 base = 0;            // load address
    u32 entry_pc = 0;        // "_start" (or base)
    std::vector<u32> image;  // initial memory image, restored on select
    TranslationCache tcache;
  };

  tera::TeraPoolConfig cluster_;
  TimingConfig timing_;
  std::unique_ptr<tera::ClusterMemory> mem_;
  std::vector<std::unique_ptr<ResidentProgram>> resident_;
  ProgramHandle active_ = kNoProgram;
  const TranslationCache* tcache_;  // active program's cache (never null)
  u64 program_switches_ = 0;
  u32 entry_pc_ = 0;
  HartArrays soa_;  // per-hart state, structure-of-arrays (see hart.h)
  std::vector<std::atomic<u8>> sleep_;  // SleepState per hart
  std::atomic<bool> stop_{false};
  std::atomic<u32> exit_code_{0};
  std::atomic<bool> exited_{false};
  TraceFn trace_;

  // ---- event-driven fast-forward ----
  struct WakeEvent {
    u64 at_cycle = 0;
    u32 hart = 0;  // ~0u = broadcast
  };
  /// Fires every pending event at the earliest scheduled cycle, repeating
  /// until a hart actually wakes or the queue drains. Returns true when the
  /// run list was refilled. run() only.
  bool fire_wake_events();
  std::vector<WakeEvent> wake_events_;  // sorted by (at_cycle, hart)
  u64 idle_jumps_ = 0;

  // ---- deterministic fault injection ----
  struct HartFault {
    u32 hart = 0;
    u64 at_instret = 0;
    bool hang = false;
    bool applied = false;
  };
  /// Applies fault `f` to its (runnable) hart at a turn boundary.
  void apply_hart_fault(HartFault& f);
  bool faults_armed_ = false;  // any fault scheduled (cold-path gate)
  std::vector<HartFault> hart_faults_;
  std::vector<u8> hart_hung_;  // lanes stuck by an applied hang fault
  u32 faults_applied_ = 0;

  /// The snapshot field list behind save_state/restore_state.
  template <class Self, class Ar>
  static void io_state(Self& m, Ar& a);

  // ---- convergence batching ----
  bool batching_ = true;
  BatchStats bstats_;
  std::mutex bstats_mutex_;          // run_threads shards merge their stats
  bool st_batch_active_ = false;     // run(): follower replay in progress
  bool st_batch_wake_ = false;       // run(): a wake hit st_awake_ mid-replay
  std::vector<TraceRun> st_trace_;   // run(): leader-trace scratch

  // ---- single-threaded run() scheduler state ----
  // The sorted awake-hart list; on_wake inserts woken harts directly (same
  // host thread), preserving the exact visit order of a scan-all-harts
  // round-robin, so cycle results are bit-identical to the previous
  // implementation. No atomic sleep-state loads on this path.
  bool st_mode_ = false;
  std::vector<u32> st_awake_;
  size_t st_pos_ = 0;

  // ---- run_threads() scheduler state ----
  // Each shard owns a run list; cross-thread wakes go through the target
  // shard's mutex-protected inbox (wakes are rare: barrier releases).
  // awake/pending counters give exact deadlock detection via the ordered
  // triple-read snapshot in the worker loop (see machine.cpp).
  struct WakeInbox {
    std::mutex m;
    std::vector<u32> ids;
    std::atomic<u32> count{0};
  };
  bool mt_mode_ = false;
  u32 shard_size_ = 1;
  std::unique_ptr<WakeInbox[]> inboxes_;
  std::atomic<u32> awake_count_{0};
  std::atomic<u32> pending_wakes_{0};
  std::atomic<i64> budget_left_{0};  // run_threads max_instructions pool
};

}  // namespace tsim::iss
