// Fast ISS tests: program execution, timing model (static latencies + RAW
// scoreboard), multi-hart scheduling, barriers, wfi/wake, determinism, and
// single- vs multi-thread equivalence.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "iss/machine.h"
#include "rvasm/textasm.h"
#include "tera/addr_map.h"

namespace tsim::iss {
namespace {

rvasm::Program prog(const std::string& text) { return rvasm::assemble(text); }

/// Convenience: machine with N harts on the tiny cluster. (Machine holds
/// atomics, so it is neither movable nor copyable - heap-allocate it.)
std::unique_ptr<Machine> make_machine(const std::string& text, u32 harts = 1,
                                      TimingConfig t = {}) {
  auto m = std::make_unique<Machine>(tera::TeraPoolConfig::tiny(), t, harts);
  m->load_program(prog(text));
  return m;
}

TEST(Iss, RunsToExitStore) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x40000000   # exit MMIO
      li t1, 5
      sw t1, 0(t0)
  )");
  const auto r = m->run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 5u);
}

TEST(Iss, CountsInstructionsAndLoop) {
  auto m = make_machine(R"(
    _start:
      li t0, 10
      li t1, 0
    loop:
      addi t1, t1, 1
      addi t0, t0, -1
      bnez t0, loop
      li t2, 0x40000000
      sw t1, 0(t2)
  )");
  const auto r = m->run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 10u);
  // 2 + 10*3 + 2 (li t2 is li+nothing; sw) = 34-ish; exact: 2 + 30 + 1 + 1.
  EXPECT_EQ(m->hart(0).instructions(), 34u);
}

TEST(Iss, EbreakHaltsHart) {
  auto m = make_machine("_start:\n nop\n ebreak\n");
  const auto r = m->run();
  EXPECT_FALSE(r.exited);
  EXPECT_TRUE(m->hart(0).state.halted);
  EXPECT_FALSE(m->hart(0).state.trapped);
}

TEST(Iss, InvalidInstructionTraps) {
  auto m = make_machine("_start:\n .word 0xFFFFFFFF\n");
  m->run();
  EXPECT_TRUE(m->hart(0).state.trapped);
}

TEST(Iss, PutcharConsole) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x40000004
      li t1, 72        # 'H'
      sw t1, 0(t0)
      li t1, 105       # 'i'
      sw t1, 0(t0)
      ebreak
  )");
  m->run();
  EXPECT_EQ(m->memory().console(), "Hi");
}

// ----- timing model -----

TEST(IssTiming, RawStallOnLoadUse) {
  // Immediate use of a load result stalls for the static memory latency.
  auto strict = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1    # immediate consumer
      ebreak
  )");
  strict->run();
  const u64 with_use = strict->hart(0).cycles();

  auto relaxed = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t2, zero, 1  # independent instruction
      ebreak
  )");
  relaxed->run();
  const u64 without_use = relaxed->hart(0).cycles();
  EXPECT_GT(with_use, without_use);
  EXPECT_GT(strict->hart(0).raw_stall_cycles, 0u);
  EXPECT_EQ(relaxed->hart(0).raw_stall_cycles, 0u);
}

TEST(IssTiming, ScoreboardOffRemovesStalls) {
  TimingConfig t;
  t.scoreboard = false;
  auto m = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1
      ebreak
  )", 1, t);
  m->run();
  EXPECT_EQ(m->hart(0).raw_stall_cycles, 0u);
}

TEST(IssTiming, StaticMemoryLatencyIsConfigurable) {
  const auto body = R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1
      ebreak
  )";
  TimingConfig t9;  // default 9
  auto m9 = make_machine(body, 1, t9);
  m9->run();
  TimingConfig t1;
  t1.static_mem_latency = 1;
  auto m1 = make_machine(body, 1, t1);
  m1->run();
  EXPECT_GT(m9->hart(0).cycles(), m1->hart(0).cycles());
}

TEST(IssTiming, TakenBranchCostsMore) {
  auto taken = make_machine(R"(
    _start:
      li t0, 1
      bnez t0, skip
      nop
    skip:
      ebreak
  )");
  taken->run();
  auto fallthrough = make_machine(R"(
    _start:
      li t0, 0
      bnez t0, skip
      nop
    skip:
      ebreak
  )");
  fallthrough->run();
  // Same instruction count +-1; the taken branch pays the flush penalty.
  EXPECT_GT(taken->hart(0).cycles() + 1, fallthrough->hart(0).cycles());
}

TEST(IssTiming, MixHistogramIsPopulated) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      sw t1, 4(t0)
      mul t2, t1, t1
      fadd.h t3, t1, t2
      ebreak
  )");
  m->run();
  const auto& mix = m->hart(0).mix;
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kLoad)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kStore)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kMul)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kFp)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kAlu)], 0u);
}

// ----- multi-hart -----

const char* kParallelSum = R"(
    # Each hart adds hartid+1 into a shared accumulator with amoadd, then
    # hart 0 exits after a software barrier (amoadd counter + wfi/wake).
    _start:
      csrr t0, mhartid
      addi t1, t0, 1
      li t2, 0x200          # accumulator
      amoadd.w zero, t1, (t2)
      # barrier
      li t3, 0x80           # barrier counter
      li t4, 1
      amoadd.w t5, t4, (t3)
      li t6, 3              # nharts-1
      beq t5, t6, last
      wfi
      j after
    last:
      sw zero, 0(t3)
      li s2, 0x40000008     # wake MMIO
      li s3, -1
      sw s3, 0(s2)
    after:
      csrr t0, mhartid
      bnez t0, park
      li s4, 0x200
      lw s5, 0(s4)
      li s6, 0x40000000
      sw s5, 0(s6)          # exit with the sum
    park:
      wfi
      j park
)";

TEST(IssMultiHart, BarrierAndSharedMemory) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  const auto r = m.run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 1u + 2 + 3 + 4);
}

TEST(IssMultiHart, MultiThreadMatchesSingleThread) {
  Machine single(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  single.load_program(prog(kParallelSum));
  const auto r1 = single.run();

  Machine multi(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  multi.load_program(prog(kParallelSum));
  const auto r2 = multi.run_threads(2);

  EXPECT_TRUE(r2.exited);
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  // The shared-memory result is schedule-independent. (Per-hart instruction
  // counts of the post-exit park loops are not: the exit store races with
  // other harts' parking, exactly as on the real hardware.)
  EXPECT_EQ(single.memory().host_read_word(0x200),
            multi.memory().host_read_word(0x200));
}

TEST(IssMultiHart, RerunAfterResetIsDeterministic) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  const auto r1 = m.run();
  const u64 c1 = m.estimated_cycles();
  const std::vector<u32> zero_word = {0};
  m.memory().host_write_words(0x200, zero_word);  // clear accumulator
  m.reset_harts();
  const auto r2 = m.run();
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  EXPECT_EQ(c1, m.estimated_cycles());
}

TEST(IssMultiHart, DeadlockIsDetected) {
  auto m = make_machine("_start:\n wfi\n j _start\n", 2);
  const auto r = m->run();
  EXPECT_TRUE(r.deadlock);
}

TEST(IssMultiHart, WfiStallCyclesAccounted) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  m.run();
  // At least one non-last hart must have slept at the barrier.
  u64 total_wfi = 0;
  for (u32 i = 0; i < 4; ++i) total_wfi += m.hart(i).wfi_stall_cycles;
  EXPECT_GT(total_wfi, 0u);
}

TEST(Iss, MaxInstructionBudgetStopsRunaway) {
  auto m = make_machine("_start:\n j _start\n");
  const auto r = m->run(1000);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_FALSE(r.exited);
}

TEST(Iss, ExitOnExactInstructionBudgetIsReported) {
  // The exit store is the 3rd and last budgeted instruction: the RunResult
  // must still carry the exit status (a budget-boundary exit used to be
  // reported as not-exited because the early return skipped exited_).
  const char* body = R"(
    _start:
      lui t0, 0x40000     # exit MMIO base
      li t1, 5
      sw t1, 0(t0)
  )";
  auto m = make_machine(body);
  const auto r = m->run(3);
  EXPECT_EQ(r.instructions, 3u);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 5u);

  // Same program under a multi-threaded run with the same budget.
  auto mt = make_machine(body);
  const auto rt = mt->run_threads(1, 3);
  EXPECT_EQ(rt.instructions, 3u);
  EXPECT_TRUE(rt.exited);
  EXPECT_EQ(rt.exit_code, 5u);
}

TEST(Iss, RunThreadsHonoursMaxInstructions) {
  // run_threads used to silently ignore the budget; now it is a shared pool
  // claimed quantum-by-quantum and never overshoots.
  auto m = make_machine("_start:\n j _start\n", 4);
  const auto r = m->run_threads(2, 1000);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_FALSE(r.exited);
  EXPECT_FALSE(r.deadlock);
}

TEST(Iss, TranslationCacheCoversProgram) {
  const auto p = prog("_start:\n nop\n ebreak\n");
  TranslationCache tc(p);
  EXPECT_EQ(tc.size(), p.words.size());
  EXPECT_NE(tc.lookup(p.base), nullptr);
  EXPECT_EQ(tc.lookup(p.base + 1), nullptr);        // misaligned
  EXPECT_EQ(tc.lookup(p.base + 0x10000), nullptr);  // out of range
}

TEST(Iss, SuperblockRunLengthsStopAtBoundaries) {
  // addi / addi / beq / addi / wfi / jal / .word garbage
  const auto p = prog(R"(
    _start:
      addi t0, zero, 1
      addi t1, zero, 2
      beq t0, t1, _start
      addi t2, zero, 3
      wfi
      j _start
      .word 0xFFFFFFFF
  )");
  TranslationCache tc(p);
  ASSERT_EQ(tc.size(), 7u);
  const auto run_len = [&](u32 idx) { return tc.entry(p.base + idx * 4)->run_len; };
  EXPECT_EQ(run_len(0), 3u);  // addi, addi, beq
  EXPECT_EQ(run_len(1), 2u);
  EXPECT_EQ(run_len(2), 1u);  // branch terminates its own run
  EXPECT_EQ(run_len(3), 2u);  // addi, wfi
  EXPECT_EQ(run_len(4), 1u);  // wfi
  EXPECT_EQ(run_len(5), 1u);  // jal
  EXPECT_EQ(run_len(6), 1u);  // invalid word heads its own run
  EXPECT_EQ(tc.entry(p.base + 1), nullptr);  // misaligned
  // Folded metadata matches the ISA table.
  const SbEntry* e = tc.entry(p.base);
  EXPECT_EQ(e->d.op, rv::Op::kAddi);
  EXPECT_NE(e->flags & kSbWritesRd, 0);
  EXPECT_EQ(e->flags & kSbStore, 0);
}

TEST(Iss, ScWakeTimestampsMatchTracedReference) {
  // sc.w is classified kAmo but stores through the same path as sw, so it
  // can hit the MMIO wake register; the fast path must refresh the wake
  // timestamp for it exactly like the per-instruction reference path does,
  // or the woken hart's wfi stall accounting diverges.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      bnez t0, waker
      wfi                  # hart 0 parks until the sc.w wake
      li t2, 0x40000000
      sw zero, 0(t2)       # exit
    waker:
      li t3, 0x40000008    # wake MMIO
      lr.w t4, (t3)
      sc.w t5, zero, (t3)  # store hart id 0 -> wakes hart 0
    park:
      wfi
      j park
  )";
  auto fast = make_machine(body, 2);
  const auto rf = fast->run();
  auto ref = make_machine(body, 2);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  const auto rr = ref->run();
  ASSERT_TRUE(rf.exited);
  ASSERT_TRUE(rr.exited);
  for (u32 h = 0; h < 2; ++h) {
    EXPECT_EQ(fast->hart(h).cycles(), ref->hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(fast->hart(h).wfi_stall_cycles, ref->hart(h).wfi_stall_cycles)
        << "hart " << h;
  }
  EXPECT_GT(fast->hart(0).wfi_stall_cycles, 0u);
}

// ----- resident-program cache -----

TEST(Iss, ResidentProgramCacheKeysByContentIdentity) {
  const auto p1 = prog("_start:\n li t0, 1\n ebreak\n");
  const auto p2 = prog("_start:\n li t0, 2\n ebreak\n");
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 1);
  EXPECT_EQ(m.active_program(), Machine::kNoProgram);

  const auto h1 = m.load_program(p1);
  EXPECT_EQ(m.active_program(), h1);
  EXPECT_EQ(m.num_resident_programs(), 1u);

  const auto h2 = m.load_program(p2);
  EXPECT_NE(h2, h1);
  EXPECT_EQ(m.active_program(), h2);
  EXPECT_EQ(m.num_resident_programs(), 2u);

  // Reloading p1 - even via a freshly assembled, content-identical program
  // object - finds the resident entry instead of translating again.
  const auto p1_again = prog("_start:\n li t0, 1\n ebreak\n");
  EXPECT_EQ(m.load_program(p1_again), h1);
  EXPECT_EQ(m.num_resident_programs(), 2u);
  const u64 switches = m.program_switches();

  // Reloading the active program is a no-op plus reset (no image rewrite).
  EXPECT_EQ(m.load_program(p1), h1);
  EXPECT_EQ(m.program_switches(), switches);

  // select_program activates a resident program directly.
  m.select_program(h2);
  EXPECT_EQ(m.active_program(), h2);
  m.run();
  EXPECT_EQ(m.hart(0).state.x[5], 2u);  // t0 from p2
  EXPECT_THROW(m.select_program(99), SimError);
}

TEST(Iss, ResidentProgramSwapIsBitExactVsColdLoad) {
  // Machine A ping-pongs: barrier program, a second program that scribbles
  // over L1 and the (shared) L2 image range footprint, then the barrier
  // program again via the resident cache. Its final run must be bit-exact -
  // registers, cycles, stall accounting - against machine B's cold first
  // run of the same program.
  const char* scribble = R"(
    _start:
      li t0, 0x100
      li t1, 0xDEAD
      sw t1, 0(t0)
      sw t1, 4(t0)
      li t2, 0x40000000
      sw zero, 0(t2)
  )";
  Machine a(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  const auto h_sum = a.load_program(prog(kParallelSum));
  ASSERT_TRUE(a.run().exited);
  const auto h_scribble = a.load_program(prog(scribble));
  ASSERT_NE(h_scribble, h_sum);
  ASSERT_TRUE(a.run().exited);
  // Clear the accumulator the first barrier run left in L1, then swap the
  // resident barrier program back in (cache hit: no retranslation).
  const std::vector<u32> zero_word = {0};
  a.memory().host_write_words(0x200, zero_word);
  a.memory().host_write_words(0x80, zero_word);
  ASSERT_EQ(a.load_program(prog(kParallelSum)), h_sum);
  const auto ra = a.run();

  Machine b(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  b.load_program(prog(kParallelSum));
  const auto rb = b.run();

  ASSERT_TRUE(ra.exited);
  ASSERT_TRUE(rb.exited);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_EQ(ra.instructions, rb.instructions);
  for (u32 h = 0; h < 4; ++h) {
    EXPECT_EQ(a.hart(h).cycles(), b.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(a.hart(h).instructions(), b.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(a.hart(h).raw_stall_cycles, b.hart(h).raw_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wfi_stall_cycles, b.hart(h).wfi_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).state.x, b.hart(h).state.x) << "hart " << h;
  }
}

TEST(Iss, ProgramFingerprintSeparatesImages) {
  const auto p1 = prog("_start:\n li t0, 1\n ebreak\n");
  const auto p2 = prog("_start:\n li t0, 2\n ebreak\n");
  EXPECT_EQ(program_fingerprint(p1), program_fingerprint(p1));
  EXPECT_NE(program_fingerprint(p1), program_fingerprint(p2));
  auto moved = p1;
  moved.base += 0x1000;
  EXPECT_NE(program_fingerprint(p1), program_fingerprint(moved));

  // Identical images whose "_start" differs are distinct programs: the
  // resident cache must not return the first program's entry point for the
  // second (they execute differently).
  const auto entry_base = prog("_start:\n nop\n li t0, 7\n ebreak\n");
  const auto entry_later = prog("nop\n_start:\n li t0, 7\n ebreak\n");
  ASSERT_EQ(entry_base.words, entry_later.words);
  EXPECT_NE(program_entry_pc(entry_base), program_entry_pc(entry_later));
  EXPECT_NE(program_fingerprint(entry_base), program_fingerprint(entry_later));

  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 1);
  const auto h1 = m.load_program(entry_base);
  const auto h2 = m.load_program(entry_later);
  EXPECT_NE(h1, h2);
  m.run();
  EXPECT_EQ(m.hart(0).instructions(), 2u);  // skipped the leading nop
}

// ----- SPMD convergence batching (see machine.h) -----
// The serial path (set_batching(false)) is the bit-exactness oracle: the
// batched dispatch must reproduce cycles, registers, stalls, and wake
// timestamps exactly on every workload below.

/// Expects hart-for-hart bit-identical state between two machines.
void expect_harts_identical(const Machine& a, const Machine& b) {
  ASSERT_EQ(a.num_harts(), b.num_harts());
  for (u32 h = 0; h < a.num_harts(); ++h) {
    EXPECT_EQ(a.hart(h).cycles(), b.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(a.hart(h).instructions(), b.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(a.hart(h).raw_stall_cycles, b.hart(h).raw_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wfi_stall_cycles, b.hart(h).wfi_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wake_cycle, b.hart(h).wake_cycle) << "hart " << h;
    EXPECT_EQ(a.hart(h).state.x, b.hart(h).state.x) << "hart " << h;
    EXPECT_EQ(a.hart(h).mix, b.hart(h).mix) << "hart " << h;
  }
}

TEST(IssBatch, BatchedMatchesSerialOnBarrierWorkload) {
  Machine batched(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  ASSERT_TRUE(batched.batching());  // default on
  batched.load_program(prog(kParallelSum));
  const auto rb = batched.run();

  Machine serial(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  serial.set_batching(false);
  serial.load_program(prog(kParallelSum));
  const auto rs = serial.run();

  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(batched, serial);
  // The four harts really did run in lockstep.
  EXPECT_GT(batched.batch_stats().batches, 0u);
  EXPECT_EQ(batched.batch_stats().width_max, 4u);
  EXPECT_EQ(serial.batch_stats().batches, 0u);
}

TEST(IssBatch, BatchedMatchesSerialOnDeadlockWorkload) {
  auto batched = make_machine("_start:\n wfi\n j _start\n", 4);
  const auto rb = batched->run();
  auto serial = make_machine("_start:\n wfi\n j _start\n", 4);
  serial->set_batching(false);
  const auto rs = serial->run();
  EXPECT_TRUE(rb.deadlock);
  EXPECT_TRUE(rs.deadlock);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(*batched, *serial);
}

TEST(IssBatch, SingleHartNeverBatches) {
  auto m = make_machine("_start:\n li t0, 0x40000000\n sw zero, 0(t0)\n", 1);
  EXPECT_TRUE(m->run().exited);
  EXPECT_EQ(m->batch_stats().batches, 0u);
  EXPECT_EQ(m->batch_stats().lockstep_instructions, 0u);
}

TEST(IssBatch, FullyDivergentPcsFallBackToSerial) {
  // Harts branch to per-hart infinite loops: after the first pass no two
  // awake harts share a pc, so batches stop forming and every turn takes
  // the serial path - results must stay bit-exact under a budget cut.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      li t1, 1
      beq t0, t1, loop1
      li t1, 2
      beq t0, t1, loop2
      li t1, 3
      beq t0, t1, loop3
    loop0:
      addi s0, s0, 1
      j loop0
    loop1:
      addi s1, s1, 2
      j loop1
    loop2:
      addi s2, s2, 3
      j loop2
    loop3:
      addi s3, s3, 4
      j loop3
  )";
  auto batched = make_machine(body, 4);
  const auto rb = batched->run(2000);
  auto serial = make_machine(body, 4);
  serial->set_batching(false);
  const auto rs = serial->run(2000);
  EXPECT_EQ(rb.instructions, 2000u);
  EXPECT_EQ(rs.instructions, 2000u);
  expect_harts_identical(*batched, *serial);
  // Divergence was actually exercised (first-turn batch split on the
  // hartid branches), and the budget cut landed on a serial turn.
  EXPECT_GT(batched->batch_stats().split_divergence, 0u);
}

TEST(IssBatch, MidSuperblockQuantumExpiryInsideBatch) {
  // A straight-line run longer than the scheduler quantum: the quantum
  // expires mid-superblock inside the batch, which must re-form at the
  // interior pc next turn and still match the serial path exactly.
  std::string body = "_start:\n";
  for (int i = 0; i < 300; ++i) body += "  addi t1, t1, 1\n";
  body += "  li t2, 0x40000000\n  sw t1, 0(t2)\n";
  auto batched = make_machine(body, 4);
  const auto rb = batched->run();
  auto serial = make_machine(body, 4);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(*batched, *serial);
  // The replay consumed whole quanta (trace exhausted at the budget), so
  // the batch really did span a superblock boundary cut.
  EXPECT_GT(batched->batch_stats().split_budget, 0u);
  EXPECT_GT(batched->batch_stats().avg_run_length(), 100.0);
}

TEST(IssBatch, BudgetedRunsAreExactAndIdenticalToSerial) {
  // max_instructions semantics must be untouched by batching: the exact
  // same instruction count retires, and per-hart state matches bit for bit
  // (a batch only forms with full-quantum headroom for every member).
  auto batched = make_machine("_start:\n j _start\n", 4);
  const auto rb = batched->run(1000);
  auto serial = make_machine("_start:\n j _start\n", 4);
  serial->set_batching(false);
  const auto rs = serial->run(1000);
  EXPECT_EQ(rb.instructions, 1000u);
  EXPECT_EQ(rs.instructions, 1000u);
  EXPECT_FALSE(rb.exited);
  expect_harts_identical(*batched, *serial);

  // run_threads shares the budget pool across shards; batched turns claim
  // width*quantum and must never overshoot either.
  auto mt = make_machine("_start:\n j _start\n", 4);
  const auto rt = mt->run_threads(2, 1000);
  EXPECT_EQ(rt.instructions, 1000u);
  EXPECT_FALSE(rt.exited);
  EXPECT_FALSE(rt.deadlock);
}

TEST(IssBatch, ScWakeTimestampsMatchSerial) {
  // The sc.w wake path: the woken hart's wake timestamp (and hence its wfi
  // stall accounting) must be identical when the waker runs as a batch
  // follower instead of a serial turn.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      bnez t0, waker
      wfi                  # hart 0 parks until the sc.w wake
      li t2, 0x40000000
      sw zero, 0(t2)       # exit
    waker:
      li t3, 0x40000008    # wake MMIO
      lr.w t4, (t3)
      sc.w t5, zero, (t3)  # store hart id 0 -> wakes hart 0
    park:
      wfi
      j park
  )";
  auto batched = make_machine(body, 2);
  const auto rb = batched->run();
  auto serial = make_machine(body, 2);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  expect_harts_identical(*batched, *serial);
  EXPECT_GT(batched->hart(0).wfi_stall_cycles, 0u);
}

TEST(Iss, SuperblockFastPathMatchesTracedReferenceOnBarriers) {
  // The wfi/wake-heavy barrier program, fast path vs the per-instruction
  // reference path (forced by a no-op trace hook): registers, instruction
  // counts, and cycle counts must be bit-identical.
  Machine fast(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  fast.load_program(prog(kParallelSum));
  const auto rf = fast.run();

  Machine ref(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  ref.set_trace([](u32, u32, const rv::Decoded&) {});
  ref.load_program(prog(kParallelSum));
  const auto rr = ref.run();

  EXPECT_TRUE(rf.exited);
  EXPECT_TRUE(rr.exited);
  EXPECT_EQ(rf.exit_code, rr.exit_code);
  EXPECT_EQ(rf.instructions, rr.instructions);
  for (u32 h = 0; h < 4; ++h) {
    EXPECT_EQ(fast.hart(h).cycles(), ref.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).instructions(), ref.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).state.x, ref.hart(h).state.x) << "hart " << h;
  }
}

// ----- SoA hart-state layout (see hart.h) -----
// The vectorized lockstep sweep reads/writes the machine-owned column
// arrays; these tests pin its results - including the full RAW scoreboard,
// which expect_harts_identical does not cover - against the serial oracle
// and the per-instruction traced reference across the state transitions the
// column passes handle specially (divergence splits, park/wake, budget
// cuts, shard boundaries, generic-op fallbacks).

/// The kParallelSum barrier program generalized to `nharts` harts.
std::string parallel_sum(u32 nharts) {
  std::string body(kParallelSum);
  const auto pos = body.find("li t6, 3");
  EXPECT_NE(pos, std::string::npos);
  body.replace(pos, 8, "li t6, " + std::to_string(nharts - 1));
  return body;
}

/// Hart-for-hart equality including the 32-entry RAW scoreboard snapshot.
void expect_scoreboards_identical(const Machine& a, const Machine& b) {
  expect_harts_identical(a, b);
  for (u32 h = 0; h < a.num_harts(); ++h)
    EXPECT_EQ(a.hart(h).ready, b.hart(h).ready) << "hart " << h;
}

TEST(IssSoa, ScoreboardSnapshotMatchesTracedReference) {
  // A load-use + FP chain leaves non-trivial per-register ready times; the
  // snapshot assembled from the ready columns must equal the traced
  // reference path entry for entry.
  const char* body = R"(
    _start:
      li t0, 0x100
      sw t0, 0(t0)
      lw t1, 0(t0)        # load-use: ready[t1] lands late
      addi t2, t1, 7
      mul t3, t2, t2      # multi-cycle result latency
      sw t3, 4(t0)
      ebreak
  )";
  auto fast = make_machine(body, 2);
  fast->run();
  auto ref = make_machine(body, 2);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  ref->run();
  for (u32 h = 0; h < 2; ++h) {
    EXPECT_EQ(fast->hart(h).ready, ref->hart(h).ready) << "hart " << h;
    EXPECT_EQ(fast->hart(h).cycles(), ref->hart(h).cycles()) << "hart " << h;
  }
}

TEST(IssSoa, SixteenHartDivergenceAndParkWakeMatchesOracles) {
  // All sixteen tiny-cluster harts: heterogeneous per-hart work before a
  // wfi/wake barrier forces batch splits, parking, and re-formation. The
  // batched SoA sweep must match both the serial oracle and the traced
  // reference bit for bit, scoreboard included.
  const std::string body = parallel_sum(16);
  auto batched = make_machine(body, 16);
  const auto rb = batched->run();
  auto serial = make_machine(body, 16);
  serial->set_batching(false);
  const auto rs = serial->run();
  auto ref = make_machine(body, 16);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  const auto rr = ref->run();
  ASSERT_TRUE(rb.exited && rs.exited && rr.exited);
  EXPECT_EQ(rb.exit_code, (16u * 17u) / 2u);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  EXPECT_EQ(rb.instructions, rr.instructions);
  expect_scoreboards_identical(*batched, *serial);
  expect_scoreboards_identical(*batched, *ref);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

TEST(IssSoa, MidSuperblockBudgetCutMatchesSerial) {
  // The budget expires inside a lockstep sweep of a long superblock: the
  // partial replay must retire exactly the budgeted count and leave every
  // column (cycles, stalls, scoreboard) as the serial oracle does.
  std::string body = "_start:\n";
  for (int i = 0; i < 200; ++i) body += "  addi t1, t1, 1\n";
  body += "loop:\n  j loop\n";
  for (const u64 budget : {150u * 4u + 3u, 199u * 4u + 1u}) {
    auto batched = make_machine(body, 4);
    const auto rb = batched->run(budget);
    auto serial = make_machine(body, 4);
    serial->set_batching(false);
    const auto rs = serial->run(budget);
    EXPECT_EQ(rb.instructions, budget);
    EXPECT_EQ(rs.instructions, budget);
    expect_scoreboards_identical(*batched, *serial);
  }
}

TEST(IssSoa, ThreeThreadUnevenShardsMatchSerial) {
  // 16 harts over 3 host threads: uneven shards (6/5/5) exercise the
  // column-array sharding boundaries of run_threads. The workload is
  // interaction-free (per-hart loop then ebreak) so per-hart state is
  // shard-placement independent and must match the single-threaded serial
  // oracle exactly, scoreboard included. (Wake-coupled workloads cannot be
  // cycle-exact across thread counts - wake arrival is cross-thread timing.)
  const char* body = R"(
    _start:
      csrr t0, mhartid
      addi t1, t0, 1      # hartid+1 iterations: every shard is heterogeneous
    loop:
      addi s0, s0, 3
      mul s1, s0, t1
      addi t1, t1, -1
      bnez t1, loop
      ebreak
  )";
  auto sharded = make_machine(body, 16);
  const auto rt = sharded->run_threads(3);
  auto serial = make_machine(body, 16);
  serial->set_batching(false);
  const auto rs = serial->run();
  EXPECT_FALSE(rt.exited);
  EXPECT_FALSE(rt.deadlock);
  EXPECT_EQ(rt.instructions, rs.instructions);
  expect_scoreboards_identical(*sharded, *serial);
  for (u32 h = 0; h < 16; ++h) EXPECT_TRUE(sharded->hart(h).state.halted) << h;
}

TEST(IssSoa, GenericFallbackOpsMatchSerial) {
  // Ops without a specialized sweep kernel (xor/or/and/srl/slt...) run
  // through the generic per-member loop inside a batch; mixing them with
  // specialized ops must stay bit-exact vs the serial oracle.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      addi t1, t0, 5
    loop:
      xori t2, t1, 0x3C
      or t3, t2, t0
      and t4, t3, t1
      srli t5, t4, 1
      slt t6, t5, t1
      sltu s2, t1, t5
      sub s3, s2, t6
      addi t1, t1, -1
      bnez t1, loop
      li s4, 0x40000000
      sw s3, 0(s4)
  )";
  auto batched = make_machine(body, 8);
  const auto rb = batched->run();
  auto serial = make_machine(body, 8);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited && rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_scoreboards_identical(*batched, *serial);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

TEST(IssSoa, Fp16ColumnSweepMatchesSerialOnSpecialOperands) {
  // The fp16 ALU ops run pass B column-wise in a lockstep batch: a
  // vectorized lane kernel on the codec's fast path, with NaN/subnormal
  // lanes re-run on the interpreter. Every op of that list runs here over a
  // full-width batch on operands that hit each codec case (NaN of both
  // signs, +-inf, subnormals, +-0, max normal, overflowing products and
  // sums), plus rd = x0, and must match the serial oracle bit for bit.
  constexpr u32 kHarts = 128;
  const char* body = R"(
    _start:
      csrr t0, mhartid
      slli t0, t0, 4
      li t1, 0x80000000
      add t0, t0, t1
      lw a0, 0(t0)        # rs1 operand
      lw a1, 4(t0)        # rs2 operand
      lw a2, 8(t0)        # rs3 operand
      lw a3, 12(t0)       # accumulator seed
      fadd.h s1, a0, a1
      fsub.h s2, a0, a1
      fmul.h s3, a0, a1
      fmadd.h s4, a0, a1, a2
      fmsub.h s5, a0, a1, a2
      mv s6, a3
      vfmac.h s6, a0, a1
      mv s7, a3
      vfdotpex.s.h s7, a0, a1
      mv s8, a3
      vfcdotp.h s8, a0, a1
      mv s9, a3
      vfccdotp.h s9, a0, a1
      vfccdotp.h s9, s9, s9   # feeds results back in: overflow, inf - inf
      vfcdotp.h s8, s8, a1
      vfccdotp.h zero, a0, a1
      fmadd.h zero, a0, a1, a2
      fmul.h s10, s3, s3
      vfmac.h s11, s6, s6
      ebreak
  )";
  // binary16 operands covering every branch of the codec.
  const std::vector<u16> special = {
      0x0000, 0x8000, 0x0001, 0x83FF, 0x03FF, 0x0400, 0x7BFF, 0xFBFF, 0x7C00,
      0xFC00, 0x7E00, 0x7D01, 0xFE00, 0x3C00, 0xC000, 0x7800, 0x5BFF, 0x1400};
  const auto n = static_cast<u32>(special.size());
  Rng rng(0xF16);
  std::vector<u32> table;
  for (u32 h = 0; h < kHarts; ++h) {
    const auto pick = [&](u32 mul, u32 add) -> u32 {
      // Every third hart draws random bit patterns instead.
      if (h % 3 == 2) return static_cast<u32>(rng.below(0x10000));
      return special[(h * mul + add) % n];
    };
    const u32 rs1 = pick(1, 0) | (pick(5, 1) << 16);
    const u32 rs2 = pick(3, 2) | (pick(7, 5) << 16);
    const u32 rs3 = pick(11, 3) | (pick(2, 9) << 16);
    const u32 acc = pick(13, 4) | (pick(17, 6) << 16);
    table.insert(table.end(), {rs1, rs2, rs3, acc});
  }
  const auto run = [&](bool batching) {
    auto m = std::make_unique<Machine>(tera::TeraPoolConfig::full(), TimingConfig{}, kHarts);
    m->set_batching(batching);
    m->load_program(prog(body));
    m->memory().host_write_words(tera::kL2Base, table);
    m->run();
    return m;
  };
  const auto batched = run(true);
  const auto serial = run(false);
  expect_scoreboards_identical(*batched, *serial);
  for (u32 h = 0; h < kHarts; ++h) {
    EXPECT_TRUE(serial->hart(h).state.halted) << h;
    EXPECT_EQ(serial->hart(h).state.x[0], 0u) << h;
  }
  EXPECT_EQ(batched->batch_stats().width_max, Machine::kMaxBatchWidth);
  EXPECT_GT(batched->batch_stats().lockstep_fraction(), 0.9);
}

}  // namespace
}  // namespace tsim::iss
