// MAC subsystem tests: HARQ entity edge cases (max-retransmission drop,
// soft-buffer release, all-processes-busy stall, feedback timeouts),
// burst-model sanity, the closed-loop cell (determinism, HARQ vs single-shot
// residual BLER), the farm's shard/thread bit-invariance contract, the
// supervising runner's failure policies (crash/stall/garble x
// retry/degrade/fail-fast), the JSON row schema, and the binary shard
// frame the shard gather rides on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mac/cell.h"
#include "mac/farm.h"
#include "mac/harq.h"

namespace tsim::mac {
namespace {

// ------------------------------------------------------------ HarqEntity ---

TEST(HarqEntityTest, NewDataOccupiesLowestFreeProcess) {
  HarqEntity h(HarqConfig{4, 4, true});
  EXPECT_EQ(h.start_new_data(100).value(), 0u);
  EXPECT_EQ(h.start_new_data(100).value(), 1u);
  EXPECT_TRUE(h.active(0));
  EXPECT_TRUE(h.active(1));
  EXPECT_FALSE(h.active(2));
  EXPECT_EQ(h.soft_buffer_bits(), 200u);
}

TEST(HarqEntityTest, AckReleasesSoftBuffer) {
  HarqEntity h(HarqConfig{2, 4, true});
  h.start_new_data(100);
  h.on_feedback(0, true);
  EXPECT_FALSE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().acks, 1u);
  EXPECT_EQ(h.stats().delivered_bits, 100u);
  // The freed process starts the next block clean: transmission 1, new bits.
  EXPECT_EQ(h.start_new_data(60).value(), 0u);
  EXPECT_EQ(h.attempts(0), 1u);
  EXPECT_EQ(h.soft_buffer_bits(), 60u);
}

TEST(HarqEntityTest, NackRetransmitsWithBoostedAttemptCount) {
  HarqEntity h(HarqConfig{2, 4, true});
  h.start_new_data(100);
  h.on_feedback(0, false);  // NACK 1: block stays resident
  EXPECT_TRUE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 100u);
  ASSERT_TRUE(h.pending_retx().has_value());
  EXPECT_EQ(*h.pending_retx(), 0u);
  EXPECT_EQ(h.grant_retx(0), 2u);  // second transmission
  h.on_feedback(0, true);
  EXPECT_EQ(h.stats().retx, 1u);
  EXPECT_EQ(h.stats().acks, 1u);
  EXPECT_FALSE(h.pending_retx().has_value());
}

TEST(HarqEntityTest, MaxAttemptsDropsBlockAndFreesProcess) {
  HarqEntity h(HarqConfig{1, 3, true});
  h.start_new_data(100);
  h.on_feedback(0, false);  // attempt 1 NACK
  h.grant_retx(0);
  h.on_feedback(0, false);  // attempt 2 NACK
  h.grant_retx(0);
  h.on_feedback(0, false);  // attempt 3 NACK: budget spent -> drop
  EXPECT_FALSE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_EQ(h.stats().dropped_bits, 100u);
  EXPECT_EQ(h.stats().retx, 2u);
  EXPECT_FALSE(h.pending_retx().has_value());
  EXPECT_DOUBLE_EQ(h.stats().residual_bler(), 1.0);
}

TEST(HarqEntityTest, AllProcessesBusyStalls) {
  HarqEntity h(HarqConfig{2, 4, true});
  EXPECT_TRUE(h.start_new_data(10).has_value());
  EXPECT_TRUE(h.start_new_data(10).has_value());
  EXPECT_TRUE(h.all_busy());
  EXPECT_FALSE(h.start_new_data(10).has_value());
  EXPECT_EQ(h.stats().stalls, 1u);
  EXPECT_EQ(h.stats().new_tx, 2u);
  EXPECT_EQ(h.unresolved(), 2u);
}

TEST(HarqEntityTest, DisabledHarqDropsOnFirstNack) {
  HarqEntity h(HarqConfig{4, 4, false});  // single-shot baseline
  h.start_new_data(100);
  h.on_feedback(0, false);
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_FALSE(h.active(0));
  EXPECT_FALSE(h.pending_retx().has_value());
}

TEST(HarqEntityTest, SoftBufferPeakTracksConcurrentBlocks) {
  HarqEntity h(HarqConfig{4, 4, true});
  h.start_new_data(100);
  h.start_new_data(200);
  EXPECT_EQ(h.stats().soft_buffer_peak_bits, 300u);
  h.on_feedback(0, true);
  h.on_feedback(1, true);
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().soft_buffer_peak_bits, 300u);  // peak is monotone
}

TEST(HarqEntityTest, FeedbackTimeoutResolvesAsNackForRetx) {
  HarqConfig cfg{2, 4, true};
  cfg.feedback_timeout_slots = 3;
  HarqEntity h(cfg);
  h.start_new_data(100, /*tti=*/5);
  EXPECT_EQ(h.expire_overdue(7), 0u);  // indication still within the window
  EXPECT_EQ(h.expire_overdue(8), 1u);  // 5 + 3: attempt resolves as NACK
  EXPECT_EQ(h.stats().timeouts, 1u);
  EXPECT_TRUE(h.active(0));            // block stays resident for retx
  EXPECT_FALSE(h.in_flight(0));
  ASSERT_TRUE(h.pending_retx().has_value());
  EXPECT_EQ(h.grant_retx(0, 9), 2u);
  EXPECT_EQ(h.sent_tti(0), 9u);        // retx restarts the timeout window
}

TEST(HarqEntityTest, FeedbackTimeoutSpendsTheAttemptBudget) {
  HarqConfig cfg{1, 2, true};
  cfg.feedback_timeout_slots = 2;
  HarqEntity h(cfg);
  h.start_new_data(64, 0);
  EXPECT_EQ(h.expire_overdue(2), 1u);  // attempt 1 timed out
  h.grant_retx(0, 3);
  EXPECT_EQ(h.expire_overdue(5), 1u);  // attempt 2 timed out: budget spent
  EXPECT_FALSE(h.active(0));           // block dropped, soft buffer released
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_EQ(h.stats().timeouts, 2u);
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
}

TEST(HarqEntityTest, ZeroTimeoutWaitsForever) {
  HarqEntity h(HarqConfig{1, 2, true});
  h.start_new_data(64, 0);
  EXPECT_EQ(h.expire_overdue(1000), 0u);
  EXPECT_TRUE(h.in_flight(0));
}

// ----------------------------------------------------------- BurstConfig ---

TEST(BurstConfigTest, StationaryOnProbabilityMatchesDuty) {
  BurstConfig b;
  b.enabled = true;
  b.duty = 0.5;
  b.mean_on_slots = 8.0;
  b.validate();
  // Two-state Markov chain: stationary P(on) = p_on / (p_on + p_off).
  const double p_on = b.p_on(0);
  const double p_off = b.p_off();
  EXPECT_NEAR(p_on / (p_on + p_off), b.duty, 1e-12);
}

TEST(BurstConfigTest, DiurnalModulationStaysWithinBounds) {
  BurstConfig b;
  b.enabled = true;
  b.duty = 0.9;
  b.mean_on_slots = 4.0;
  b.diurnal_period_ttis = 20.0;
  b.diurnal_depth = 1.0;
  b.validate();
  for (u64 t = 0; t < 40; ++t) {
    const double p = b.p_on(t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ------------------------------------------------------------- Cell/farm ---

/// A farm small enough for unit tests: 16-subcarrier carrier, 2 symbols,
/// tiny clusters - but enough TTIs for retransmission chains to resolve.
FarmConfig tiny_farm() {
  FarmConfig cfg;
  cfg.cells = 4;
  cfg.ttis = 24;
  cfg.ues_per_cell = 8;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.seed = 0xFA21;
  return cfg;
}

TEST(CellTest, ClosedLoopRunsAndAccounts) {
  const FarmConfig cfg = tiny_farm();
  Cell cell(cfg.cell_config(0));
  for (u32 t = 0; t < cfg.ttis; ++t) cell.step(t);
  const CellReport rep = cell.report();
  EXPECT_EQ(rep.ttis, cfg.ttis);
  EXPECT_EQ(rep.slots, cfg.ttis);
  EXPECT_EQ(rep.pdus, rep.harq.transmissions());
  EXPECT_GT(rep.pdus, 0u);
  EXPECT_GT(rep.bits, 0u);
  // Feedback bookkeeping closes: every transmission either passed CRC (and
  // was an ACK), failed (and became a retx, a drop, or is unresolved).
  EXPECT_EQ(rep.harq.new_tx, rep.harq.acks + rep.harq.drops + rep.unresolved);
  EXPECT_LE(rep.p50_cycles, rep.p99_cycles);
  EXPECT_LE(rep.p99_cycles, rep.worst_cycles);
}

TEST(CellTest, SameConfigIsBitIdentical) {
  const FarmConfig cfg = tiny_farm();
  Cell a(cfg.cell_config(1));
  Cell b(cfg.cell_config(1));
  for (u32 t = 0; t < cfg.ttis; ++t) {
    a.step(t);
    b.step(t);
  }
  EXPECT_TRUE(a.report() == b.report());
}

TEST(CellTest, DistinctCellsGetDistinctTraffic) {
  const FarmConfig cfg = tiny_farm();
  const CellReport a = run_cell(cfg, 0);
  const CellReport b = run_cell(cfg, 1);
  // Same shape, different keyed streams: the error counts should differ.
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_FALSE(a == b);
}

TEST(FarmTest, ShardCountDoesNotChangeAnyReport) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 1;
  const FarmResult r1 = run_farm(cfg);
  cfg.shards = 2;
  const FarmResult r2 = run_farm(cfg);
  cfg.shards = 4;
  const FarmResult r4 = run_farm(cfg);
  cfg.shards = 3;  // uneven partition
  const FarmResult r3 = run_farm(cfg);
  ASSERT_EQ(r1.cells.size(), cfg.cells);
  ASSERT_EQ(r2.cells.size(), cfg.cells);
  ASSERT_EQ(r4.cells.size(), cfg.cells);
  for (u32 c = 0; c < cfg.cells; ++c) {
    EXPECT_TRUE(r1.cells[c] == r2.cells[c]) << "cell " << c << " shards 1 vs 2";
    EXPECT_TRUE(r1.cells[c] == r4.cells[c]) << "cell " << c << " shards 1 vs 4";
    EXPECT_TRUE(r1.cells[c] == r3.cells[c]) << "cell " << c << " shards 1 vs 3";
  }
}

TEST(FarmTest, FastForwardActivityIsShardInvariant) {
  // Workers send their fast-forward activity in the shard frame, so a clean
  // run reports the same totals inline and at any shard count.
  FarmConfig cfg = tiny_farm();
  cfg.ttis = 48;
  cfg.pool.fast_forward = true;
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.25;
  cfg.burst.diurnal_period_ttis = 24.0;
  cfg.burst.diurnal_depth = 1.0;  // deep troughs: quiescent TTIs to skip
  const FarmResult r1 = run_farm(cfg);
  EXPECT_EQ(r1.ff.ttis, u64{cfg.cells} * cfg.ttis);
  EXPECT_GT(r1.ff.idle_ttis, 0u);
  EXPECT_GT(r1.ff.batches.full_batches + r1.ff.batches.shrunk_batches, 0u);
  for (const u32 shards : {2u, 4u}) {
    cfg.shards = shards;
    const FarmResult rs = run_farm(cfg);
    EXPECT_TRUE(rs.ff == r1.ff) << "shards " << shards;
    for (u32 c = 0; c < cfg.cells; ++c)
      EXPECT_TRUE(rs.cells[c] == r1.cells[c]) << "cell " << c;
  }
}

TEST(FarmTest, HostThreadCountDoesNotChangeAnyReport) {
  FarmConfig cfg = tiny_farm();
  cfg.pool.host_threads = 1;
  const FarmResult r1 = run_farm(cfg);
  cfg.pool.host_threads = 4;
  cfg.shards = 2;
  const FarmResult r4 = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(r1.cells[c] == r4.cells[c]) << "cell " << c;
}

TEST(FarmTest, HarqLowersResidualBlerAtSameSnr) {
  FarmConfig cfg = tiny_farm();
  cfg.cells = 2;
  cfg.ttis = 40;
  const CellReport with = run_farm(cfg).total();
  cfg.harq.enabled = false;
  const CellReport without = run_farm(cfg).total();
  ASSERT_GT(with.harq.retx, 0u) << "test needs CRC failures to exercise HARQ";
  ASSERT_GT(without.harq.finished(), 0u);
  // Retransmissions at Chase-boosted SNR recover blocks single-shot loses.
  EXPECT_LT(with.residual_bler(), without.residual_bler());
  EXPECT_EQ(without.harq.retx, 0u);
}

TEST(FarmTest, BurstyArrivalsThinTheOfferedLoad) {
  FarmConfig cfg = tiny_farm();
  const CellReport full = run_farm(cfg).total();
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.4;
  cfg.burst.arrival_prob = 0.7;
  const CellReport burst = run_farm(cfg).total();
  EXPECT_LT(burst.harq.new_tx, full.harq.new_tx);
  EXPECT_GT(burst.harq.new_tx, 0u);
  // Bursty runs stay shard-invariant too.
  cfg.shards = 2;
  const CellReport burst2 = run_farm(cfg).total();
  EXPECT_TRUE(burst == burst2);
}

TEST(FarmTest, TotalSumsCounters) {
  FarmConfig cfg = tiny_farm();
  const FarmResult r = run_farm(cfg);
  const CellReport t = r.total();
  u64 pdus = 0, misses = 0, worst = 0;
  for (const CellReport& c : r.cells) {
    pdus += c.pdus;
    misses += c.misses;
    worst = std::max(worst, c.worst_cycles);
  }
  EXPECT_EQ(t.pdus, pdus);
  EXPECT_EQ(t.misses, misses);
  EXPECT_EQ(t.worst_cycles, worst);
  EXPECT_EQ(t.ues, cfg.cells * cfg.ues_per_cell);
}

TEST(FarmTest, TotalSemanticsOnHandBuiltReports) {
  // Pin which fields sum and which take the worst cell: cells run on
  // independent hardware, so timing percentiles are max'd while every
  // counter - including soft-buffer peaks (farm-wide memory provisioning)
  // and the fault/timeout counters - sums.
  CellReport a, b;
  a.cell = 0;
  a.ttis = 24;
  a.p50_cycles = 10;
  a.p99_cycles = 20;
  a.worst_cycles = 30;
  a.harq.soft_buffer_peak_bits = 1000;
  a.harq.timeouts = 3;
  a.hart_faults = 2;
  a.ecc_corrected = 1;
  a.ecc_detected = 3;
  a.ecc_silent = 1;
  a.dropped_ind = 2;
  a.degraded_slots = 4;
  b.cell = 1;
  b.ttis = 16;
  b.p50_cycles = 15;
  b.p99_cycles = 18;
  b.worst_cycles = 25;
  b.harq.soft_buffer_peak_bits = 500;
  b.harq.timeouts = 4;
  b.hart_faults = 5;
  b.ecc_corrected = 2;
  b.ecc_silent = 1;
  b.dropped_ind = 1;
  b.delayed_ind = 2;
  b.degraded_slots = 1;
  FarmResult r;
  r.cells = {a, b};
  const CellReport t = r.total();
  EXPECT_EQ(t.ttis, 24u);          // max: cells ran concurrently
  EXPECT_EQ(t.p50_cycles, 15u);    // max over per-cell percentiles
  EXPECT_EQ(t.p99_cycles, 20u);
  EXPECT_EQ(t.worst_cycles, 30u);
  EXPECT_EQ(t.harq.soft_buffer_peak_bits, 1500u);  // sum
  EXPECT_EQ(t.harq.timeouts, 7u);
  EXPECT_EQ(t.hart_faults, 7u);
  EXPECT_EQ(t.ecc_corrected, 3u);
  EXPECT_EQ(t.ecc_detected, 3u);
  EXPECT_EQ(t.ecc_silent, 2u);
  EXPECT_EQ(t.dropped_ind, 3u);
  EXPECT_EQ(t.delayed_ind, 2u);
  EXPECT_EQ(t.degraded_slots, 5u);
}

// ------------------------------------------------------ supervisor/faults ---

TEST(FarmSupervisorTest, CrashedShardIsRetriedToTheCleanResult) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.host_fault.crash_shard = 0;
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 1u);
  EXPECT_EQ(got.failures[0].shard, 0u);
  EXPECT_EQ(got.failures[0].attempt, 1u);
  EXPECT_TRUE(got.failures[0].recovered);
  EXPECT_TRUE(got.missing_cells().empty());
}

TEST(FarmSupervisorTest, ExhaustedRetriesFallBackToInlineExecution) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.max_shard_attempts = 2;
  cfg.host_fault.crash_shard = 1;
  cfg.host_fault.fault_attempts = 99;  // every forked attempt crashes
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 2u);  // both forked attempts failed
  EXPECT_TRUE(got.failures[0].recovered);  // ...but the inline fallback ran
  EXPECT_TRUE(got.failures[1].recovered);
  EXPECT_TRUE(got.missing_cells().empty());
}

TEST(FarmSupervisorTest, StalledShardIsKilledByTheTimeoutAndRetried) {
  FarmConfig cfg = tiny_farm();
  cfg.cells = 2;
  cfg.ttis = 8;
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.host_fault.stall_shard = 1;
  cfg.shard_timeout_s = 4.0;
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 1u);
  EXPECT_NE(got.failures[0].reason.find("timeout"), std::string::npos)
      << got.failures[0].reason;
  EXPECT_TRUE(got.failures[0].recovered);
}

TEST(FarmSupervisorTest, GarbledShardDegradesToZeroFilledCells) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kDegrade;
  cfg.host_fault.garble_shard = 1;  // owns cells 1 and 3 (round-robin)
  const FarmResult got = run_farm(cfg);
  ASSERT_FALSE(got.failures.empty());
  EXPECT_FALSE(got.failures[0].recovered);
  // Half a frame: the container's size check rejects it before any decode.
  EXPECT_EQ(got.failures[0].reason.rfind("shard frame @", 0), 0u)
      << got.failures[0].reason;
  EXPECT_NE(got.failures[0].reason.find("truncated"), std::string::npos)
      << got.failures[0].reason;
  EXPECT_EQ(got.missing_cells(), (std::vector<u32>{1, 3}));
  // Survivor cells are untouched; lost cells are zero-filled with identity.
  EXPECT_TRUE(got.cells[0] == want.cells[0]);
  EXPECT_TRUE(got.cells[2] == want.cells[2]);
  EXPECT_EQ(got.cells[1].cell, 1u);
  EXPECT_EQ(got.cells[1].pdus, 0u);
  EXPECT_EQ(got.cells[3].slots, 0u);
}

TEST(FarmSupervisorTest, FailFastThrowsAndReapsEverything) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.policy = FarmPolicy::kFailFast;
  cfg.host_fault.crash_shard = 0;
  EXPECT_THROW(run_farm(cfg), SimError);
}

TEST(FarmSupervisorTest, ReportsLargerThanThePipeBufferAreDrained) {
  // Pad every cell's frame record until each shard streams well past 64 KiB
  // (the Linux pipe buffer): the concurrent poll() drain must gather all of
  // it without deadlock, and padding must not change any decoded report.
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  const FarmResult want = run_farm(cfg);
  cfg.pad_row_bytes = 48 * 1024;  // 2 cells/shard -> ~96 KiB per shard
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  EXPECT_TRUE(got.failures.empty());
}

TEST(FarmSupervisorTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(parse_farm_policy("retry"), FarmPolicy::kRetry);
  EXPECT_EQ(parse_farm_policy("degrade"), FarmPolicy::kDegrade);
  EXPECT_EQ(parse_farm_policy("fail_fast"), FarmPolicy::kFailFast);
  EXPECT_STREQ(farm_policy_name(FarmPolicy::kRetry), "retry");
  EXPECT_THROW(parse_farm_policy("bogus"), SimError);
}

TEST(FarmSupervisorTest, StallInjectionWithoutTimeoutIsRejected) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.host_fault.stall_shard = 0;
  cfg.shard_timeout_s = 0.0;  // would hang forever
  EXPECT_THROW(run_farm(cfg), SimError);
}

// ------------------------------------------------------- row wire format ---

TEST(FarmWireFormatTest, ReportRowRoundTrips) {
  const FarmConfig cfg = tiny_farm();
  const CellReport rep = run_cell(cfg, 2);
  const std::vector<std::string> header = cell_report_header();
  const std::vector<std::string> row = cell_report_row(rep);
  ASSERT_EQ(header.size(), row.size());
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < header.size(); ++i) pairs.emplace_back(header[i], row[i]);
  EXPECT_TRUE(cell_report_from_row(pairs) == rep);
}

/// Shard 1 of 2 over tiny_farm's four cells, run for real.
ShardFrame real_shard1_frame(const FarmConfig& cfg) {
  ShardFrame frame;
  for (const u32 c : {1u, 3u})
    frame.cells.push_back(run_cell(cfg, c, false, nullptr, &frame.ff));
  return frame;
}

TEST(FarmWireFormatTest, MultiCellShardFrameRoundTrips) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.pad_row_bytes = 16;
  const ShardFrame frame = real_shard1_frame(cfg);
  const std::string bytes = encode_shard_frame(frame, cfg);
  ShardFrame got;
  ASSERT_EQ(decode_shard_frame(bytes, cfg, 1, &got), "");
  ASSERT_EQ(got.cells.size(), 2u);
  EXPECT_TRUE(got.cells[0] == frame.cells[0]);
  EXPECT_TRUE(got.cells[1] == frame.cells[1]);
  EXPECT_TRUE(got.ff == frame.ff);
  EXPECT_EQ(got.ff.ttis, 2u * cfg.ttis);

  // The supervisor's ownership checks, on frames that decode cleanly.
  const auto reason = [&](const ShardFrame& f, const FarmConfig& enc,
                          u32 shard) {
    ShardFrame out;
    const std::string r = decode_shard_frame(encode_shard_frame(f, enc), cfg,
                                             shard, &out);
    EXPECT_TRUE(out.cells.empty()) << "a rejected frame committed cells";
    return r;
  };
  EXPECT_NE(reason(frame, cfg, 0).find("foreign cell"), std::string::npos);
  ShardFrame dup = frame;
  dup.cells[1] = dup.cells[0];
  EXPECT_NE(reason(dup, cfg, 1).find("duplicate cell"), std::string::npos);
  ShardFrame part = frame;
  part.cells.pop_back();
  EXPECT_EQ(reason(part, cfg, 1), "incomplete shard output (1 of 2 cells)");
  FarmConfig unpadded = cfg;
  unpadded.pad_row_bytes = 0;
  EXPECT_NE(reason(frame, unpadded, 1).find("bad padding"), std::string::npos);
}

TEST(FarmWireFormatTest, EveryTruncationAndBitFlipOfAShardFrameFails) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.pad_row_bytes = 8;  // the padding section is swept too
  const std::string bytes = encode_shard_frame(real_shard1_frame(cfg), cfg);
  const auto rejected = [&](const std::string& bad) {
    ShardFrame out;
    const std::string reason = decode_shard_frame(bad, cfg, 1, &out);
    return !reason.empty() && out.cells.empty() &&
           out.ff == FarmResult::FfActivity{};
  };
  for (size_t keep = 0; keep < bytes.size(); ++keep)
    EXPECT_TRUE(rejected(bytes.substr(0, keep))) << "truncated to " << keep;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string bad = bytes;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(rejected(bad)) << "bit " << bit << " flipped";
  }
  ShardFrame out;
  EXPECT_EQ(decode_shard_frame(bytes, cfg, 1, &out), "");
}

TEST(FarmWireFormatTest, MissingFieldThrows) {
  EXPECT_THROW(cell_report_from_row({{"cell", "0"}}), SimError);
  EXPECT_THROW(cell_report_from_row({{"cell", "abc"}}), SimError);
}

// ------------------------------------------------------------------ FAPI ---

TEST(FapiTest, SlotRequestTotalsAndIndicationFailures) {
  SlotRequest req;
  req.cell = 1;
  req.tti = 7;
  req.pdus.push_back(PduDescriptor{0, 0, true, 1, 0, 0, 0, 4, 10.0, 96});
  req.pdus.push_back(PduDescriptor{1, 2, false, 3, 0, 0, 4, 4, 14.8, 96});
  EXPECT_EQ(req.total_bits(), 192u);

  SlotIndication ind;
  ind.crcs.push_back(CrcResult{0, 0, true, 0, 96});
  ind.crcs.push_back(CrcResult{1, 2, false, 5, 96});
  EXPECT_EQ(ind.failed(), 1u);
  EXPECT_NEAR(ind.crcs[1].ber(), 5.0 / 96.0, 1e-12);
}

TEST(FapiTest, ChaseCombiningBoostsEffectiveSnr) {
  EXPECT_DOUBLE_EQ(phy::Channel::chase_combined_snr_db(10.0, 1), 10.0);
  EXPECT_NEAR(phy::Channel::chase_combined_snr_db(10.0, 2), 13.0103, 1e-3);
  EXPECT_NEAR(phy::Channel::chase_combined_snr_db(10.0, 4), 16.0206, 1e-3);
}

}  // namespace
}  // namespace tsim::mac
