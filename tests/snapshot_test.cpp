// Checkpoint/restore contract tests (sim/snapshot.h and the save_state/
// restore_state entry points layered on it): container integrity against
// bit-flips and truncation, bit-exact machine round-trips at adversarial
// boundaries (mid-superblock budget expiry, WFI-parked harts, armed-but-
// unfired faults, every kernel precision), cell round-trips with HARQ
// attempts in flight past the feedback timeout, the farm's snapshot resume
// ladder, and checkpoint-resumed crash recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "mac/farm.h"
#include "mac/harq.h"
#include "rvasm/textasm.h"
#include "sim/cosim.h"
#include "sim/snapshot.h"

namespace tsim {
namespace {

using kern::MmseLayout;
using kern::Precision;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

MmseLayout tiny_layout(u32 n, Precision prec, u32 cores = 1) {
  MmseLayout lay;
  lay.ntx = n;
  lay.nrx = n;
  lay.prec = prec;
  lay.num_cores = cores;
  lay.cluster = tera::TeraPoolConfig::tiny();
  lay.validate();
  return lay;
}

sim::MimoProblem rayleigh_problem(u32 n, double snr_db, u64 seed) {
  Rng rng(seed);
  phy::Channel ch(phy::ChannelType::kRayleigh, n, n);
  phy::QamModulator qam(16);
  const auto batch = sim::generate_batch(ch, qam, n, 1, snr_db, rng);
  return batch.problems[0];
}

std::string machine_payload(const iss::Machine& m) {
  sim::SnapshotWriter w;
  m.save_state(w);
  return w.payload();
}

std::string cell_payload(const mac::Cell& c) {
  sim::SnapshotWriter w;
  c.save_state(w);
  return w.payload();
}

/// Fresh per-test scratch directory under the system temp dir, removed on
/// destruction (tests run concurrently under ctest -j, so names must not
/// collide).
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const char* tag) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        (std::string("tsim_") + tag + "_XXXXXX"))
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

mac::FarmConfig small_farm() {
  mac::FarmConfig cfg;
  cfg.cells = 2;
  cfg.ttis = 12;
  cfg.ues_per_cell = 8;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.seed = 0xB0B5;
  return cfg;
}

// ---------------------------------------------------------------------------
// Container format: CRC, primitives, corruption detection.
// ---------------------------------------------------------------------------

TEST(Snapshot, Crc32KnownAnswer) {
  // The ISO-HDLC check value: CRC-32 of the ASCII digits "123456789".
  EXPECT_EQ(sim::crc32("123456789", 9), 0xCBF43926u);
  // Chaining partial buffers equals one shot.
  const u32 a = sim::crc32("12345", 5);
  EXPECT_EQ(sim::crc32("6789", 4, a), 0xCBF43926u);
}

TEST(Snapshot, WriterReaderRoundTripsEveryPrimitive) {
  sim::SnapshotWriter w;
  w.tag(0xABCD0001);
  w.write_u8(0x5A);
  w.write_bool(true);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_string("hello snapshot");
  w.write_vec_u8({1, 2, 3});
  w.write_vec_u32({0xFFFFFFFFu, 0});
  w.write_vec_u64({7, 8, 9});

  sim::SnapshotReader r(w.payload());
  r.expect_tag(0xABCD0001, "test section");
  EXPECT_EQ(r.read_u8(), 0x5A);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_string(), "hello snapshot");
  EXPECT_EQ(r.read_vec_u8(), (std::vector<u8>{1, 2, 3}));
  EXPECT_EQ(r.read_vec_u32(), (std::vector<u32>{0xFFFFFFFFu, 0}));
  EXPECT_EQ(r.read_vec_u64(), (std::vector<u64>{7, 8, 9}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Snapshot, ReaderRejectsCorruptLengthAndBadTag) {
  sim::SnapshotWriter w;
  w.write_u64(0xFFFFFFFFFFFFFFFFull);  // absurd length prefix
  {
    sim::SnapshotReader r(w.payload());
    EXPECT_THROW(r.read_vec_u64(), sim::SnapshotError);
  }
  {
    sim::SnapshotWriter t;
    t.tag(1);
    sim::SnapshotReader r(t.payload());
    EXPECT_THROW(r.expect_tag(2, "mismatched"), sim::SnapshotError);
  }
  {
    sim::SnapshotReader r(std::string("ab"));  // too short for a u32
    EXPECT_THROW(r.read_u32(), sim::SnapshotError);
    try {
      sim::SnapshotReader r2(std::string("ab"), "some_file.snap");
      r2.read_u32();
      FAIL() << "expected SnapshotError";
    } catch (const sim::SnapshotError& e) {
      EXPECT_EQ(e.file(), "some_file.snap");
      EXPECT_EQ(e.offset(), 0u);
    }
  }
}

/// A record with one field list, driven both ways like the stateful layers.
struct TwoWayRecord {
  u32 id = 0;
  bool live = false;
  std::atomic<u8> state{0};
  std::string name;
  std::vector<u64> words;
  std::vector<std::unique_ptr<u32>> boxes;

  template <class Self, class Ar>
  static void io_state(Self& s, Ar& a) {
    a.io_tag(0x57415954, "TwoWayRecord");
    a.io_match(u32{7}, "wrong record shape");
    a.io(s.id, s.live, s.state, s.name, s.words);
    a.expect(s.state.load() < 3, "state out of range");
    a.io_each(s.boxes, [&a](auto& b) { a.io(b); });
  }
};

TEST(Snapshot, TwoWayPrimitivesRoundTripAndCheckOnLoad) {
  TwoWayRecord in;
  in.id = 42;
  in.live = true;
  in.state = 2;
  in.name = "cell";
  in.words = {1, 2, 3};
  in.boxes.push_back(std::make_unique<u32>(9));
  sim::SnapshotWriter w;
  w.io(in);

  TwoWayRecord out;
  sim::SnapshotReader r(w.payload());
  r.io(out);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(out.id, 42u);
  EXPECT_TRUE(out.live);
  EXPECT_EQ(out.state.load(), 2);
  EXPECT_EQ(out.name, "cell");
  EXPECT_EQ(out.words, (std::vector<u64>{1, 2, 3}));
  ASSERT_EQ(out.boxes.size(), 1u);
  EXPECT_EQ(*out.boxes[0], 9u);

  // Each load-side check fires at its field: the match, the range check,
  // and a sequence count larger than the bytes left (refused before any
  // element is allocated).
  const std::pair<size_t, const char*> cases[] = {
      {4, "wrong record shape"},
      {13, "state out of range"},
      {w.size() - 4 - 1, "length overruns payload"},  // count's top byte
  };
  for (const auto& [at, what] : cases) {
    std::string bad = w.payload();
    bad[at] = static_cast<char>(0x7F);
    TwoWayRecord x;
    sim::SnapshotReader rb(bad);
    try {
      rb.io(x);
      ADD_FAILURE() << "byte " << at << " corrupted but the load passed";
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

TEST(Snapshot, FileRoundTripIsAtomicAndClean) {
  ScratchDir dir("file");
  const std::string path = dir.path + "/round.snap";
  const std::string payload = "payload bytes \x00\x01\x02 with nul";
  sim::write_snapshot_file(path, 0x4B494E44, payload);
  EXPECT_EQ(sim::read_snapshot_file(path, 0x4B494E44), payload);
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Wrong kind is rejected even though the bytes are intact.
  EXPECT_THROW(sim::read_snapshot_file(path, 0x4B494E45), sim::SnapshotError);
}

TEST(Snapshot, TruncatedFilesAreDetectedAtEveryBoundary) {
  ScratchDir dir("trunc");
  const std::string path = dir.path + "/t.snap";
  sim::write_snapshot_file(path, 7, std::string(64, 'x'));
  const std::string whole = slurp(path);
  ASSERT_EQ(whole.size(), 24u + 64u);
  // Mid-header, exactly-header, and mid-payload truncations must all throw
  // SnapshotError (never a silent short read).
  for (const size_t keep : {size_t{3}, size_t{12}, size_t{24}, size_t{50}}) {
    spit(path, whole.substr(0, keep));
    EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError)
        << "truncated to " << keep << " bytes";
  }
  // Trailing garbage is corruption too.
  spit(path, whole + "zz");
  EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError);
}

TEST(Snapshot, BitFlipsAreDetectedEverywhere) {
  ScratchDir dir("flip");
  const std::string path = dir.path + "/f.snap";
  sim::write_snapshot_file(path, 7, std::string(64, 'y'));
  const std::string whole = slurp(path);
  // Flip one bit in every region: magic, version, kind, CRC, size, payload.
  for (const size_t at : {size_t{1}, size_t{5}, size_t{9}, size_t{13},
                          size_t{17}, size_t{30}, whole.size() - 1}) {
    std::string bad = whole;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    spit(path, bad);
    EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError)
        << "bit flip at byte " << at;
  }
  // And the pristine file still reads back.
  spit(path, whole);
  EXPECT_EQ(sim::read_snapshot_file(path, 7), std::string(64, 'y'));
}

// ---------------------------------------------------------------------------
// Machine round-trips at adversarial boundaries.
// ---------------------------------------------------------------------------

class MachinePrecisionRoundTrip : public ::testing::TestWithParam<Precision> {};

TEST_P(MachinePrecisionRoundTrip, MidRunCutContinuesBitIdentically) {
  // Cut the run mid-flight with an instruction budget (which can land inside
  // a lockstep superblock sweep - run() normalizes every hart to a serial
  // boundary before returning), capture, restore into a fresh machine, and
  // finish both: every architectural bit and counter must agree.
  const auto lay = tiny_layout(8, GetParam(), 4);
  const auto program = kern::build_mmse_program(lay);

  iss::Machine a(lay.cluster, iss::TimingConfig{}, 4);
  a.load_program(program);
  for (u32 c = 0; c < 4; ++c)
    sim::stage_problem(a.memory(), lay, c, 0, rayleigh_problem(8, 12.0, 40 + c));
  const auto cut = a.run(2000);  // mid-run: nobody has exited yet
  ASSERT_FALSE(cut.exited);

  iss::Machine b(lay.cluster, iss::TimingConfig{}, 4);
  sim::SnapshotReader r(machine_payload(a));
  b.restore_state(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(machine_payload(a), machine_payload(b));

  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_TRUE(ra.exited);
  EXPECT_TRUE(rb.exited);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_EQ(ra.instructions, rb.instructions);
  EXPECT_EQ(machine_payload(a), machine_payload(b));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, MachinePrecisionRoundTrip,
                         ::testing::Values(Precision::k16Half,
                                           Precision::k16WDotp,
                                           Precision::k16CDotp,
                                           Precision::k8Quarter,
                                           Precision::k8WDotp),
                         [](const auto& info) {
                           return std::string(kern::name_of(info.param));
                         });

TEST(Snapshot, MachineRoundTripWithWfiParkedHarts) {
  // Run a multi-core barrier workload in small instruction slices until the
  // capture catches harts parked in WFI at the barrier, then round-trip.
  const auto lay = tiny_layout(4, Precision::k16CDotp, 4);
  iss::Machine a(lay.cluster, iss::TimingConfig{}, 4);
  a.load_program(kern::build_mmse_program(lay));
  for (u32 c = 0; c < 4; ++c)
    sim::stage_problem(a.memory(), lay, c, 0, rayleigh_problem(4, 10.0, 90 + c));

  bool saw_wfi_capture = false;
  for (int slice = 0; slice < 400; ++slice) {
    const auto res = a.run(50);
    if (res.exited) break;
    u32 parked = 0;
    for (u32 h = 0; h < 4; ++h)
      if (a.hart(h).state.in_wfi) ++parked;
    if (parked == 0) continue;
    saw_wfi_capture = true;
    iss::Machine b(lay.cluster, iss::TimingConfig{}, 4);
    sim::SnapshotReader r(machine_payload(a));
    b.restore_state(r);
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.exited, rb.exited);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(machine_payload(a), machine_payload(b));
    break;
  }
  EXPECT_TRUE(saw_wfi_capture) << "never caught a WFI-parked hart";
}

TEST(Snapshot, MachineRoundTripWithArmedUnfiredFaults) {
  // Arm faults that have NOT fired at capture time: the schedule must travel
  // with the snapshot so both runs trap/hang identically after restore.
  const auto lay = tiny_layout(4, Precision::k16WDotp, 2);
  iss::Machine a(lay.cluster, iss::TimingConfig{}, 2);
  a.load_program(kern::build_mmse_program(lay));
  for (u32 c = 0; c < 2; ++c)
    sim::stage_problem(a.memory(), lay, c, 0, rayleigh_problem(4, 11.0, 70 + c));
  a.inject_hart_fault(1, 1500, /*hang=*/false);  // fires well past the cut
  const auto cut = a.run(300);
  ASSERT_FALSE(cut.exited);
  ASSERT_EQ(a.hart_faults_applied(), 0u);
  ASSERT_TRUE(a.hart_faults_armed());

  iss::Machine b(lay.cluster, iss::TimingConfig{}, 2);
  sim::SnapshotReader r(machine_payload(a));
  b.restore_state(r);
  EXPECT_TRUE(b.hart_faults_armed());

  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.exited, rb.exited);
  EXPECT_EQ(ra.instructions, rb.instructions);
  EXPECT_EQ(a.hart_faults_applied(), b.hart_faults_applied());
  EXPECT_EQ(a.hart_faults_applied(), 1u);
  EXPECT_EQ(machine_payload(a), machine_payload(b));
}

TEST(Snapshot, MachineRestoreRefusesCorruptImagesAndWrongShapes) {
  const auto lay = tiny_layout(4, Precision::k16Half, 1);
  iss::Machine a(lay.cluster, iss::TimingConfig{}, 1);
  a.load_program(kern::build_mmse_program(lay));
  const std::string payload = machine_payload(a);

  // Hart-count mismatch: a 2-hart machine must refuse a 1-hart capture.
  iss::Machine wrong(lay.cluster, iss::TimingConfig{}, 2);
  sim::SnapshotReader rw(payload);
  EXPECT_THROW(wrong.restore_state(rw), sim::SnapshotError);

  // A flipped bit inside a resident program image breaks the stored
  // fingerprint binding (or the payload structure) - never a silent load.
  bool threw_somewhere = false;
  for (size_t at = 64; at < payload.size(); at += payload.size() / 13) {
    std::string bad = payload;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    iss::Machine m(lay.cluster, iss::TimingConfig{}, 1);
    try {
      sim::SnapshotReader r(bad);
      m.restore_state(r);
      r.expect_end();
    } catch (const sim::SnapshotError&) {
      threw_somewhere = true;
    }
  }
  EXPECT_TRUE(threw_somewhere);
}

// ---------------------------------------------------------------------------
// Cell round-trips: HARQ in flight, feedback timers, delayed indications.
// ---------------------------------------------------------------------------

TEST(Snapshot, CellRoundTripWithHarqInFlightPastTimeout) {
  // Capture mid-soak with every stateful mechanism live: HARQ attempts in
  // flight (some past the feedback timeout), fault-delayed indications
  // pending, retransmissions queued. The restored cell must finish the soak
  // byte-identically.
  mac::FarmConfig cfg = small_farm();
  cfg.fault.enabled = true;
  cfg.fault.hart_trap_rate = 0.3;
  cfg.fault.hart_hang_rate = 0.2;
  cfg.fault.l1_flip_rate = 0.5;
  cfg.fault.drop_indication_rate = 0.2;
  cfg.fault.delay_indication_rate = 0.3;
  cfg.fault.delay_slots = 3;
  cfg.harq.feedback_timeout_slots = 2;  // shorter than the delivery delay

  mac::Cell clean(cfg.cell_config(0));
  for (u32 t = 0; t < cfg.ttis; ++t) clean.step(t);

  mac::Cell a(cfg.cell_config(0));
  for (u32 t = 0; t < 7; ++t) a.step(t);  // mid-soak, timers mid-count

  mac::Cell b(cfg.cell_config(0));
  sim::SnapshotReader r(cell_payload(a));
  b.restore_state(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(cell_payload(a), cell_payload(b));

  for (u32 t = 7; t < cfg.ttis; ++t) {
    a.step(t);
    b.step(t);
  }
  EXPECT_EQ(cell_payload(a), cell_payload(b));
  EXPECT_EQ(cell_payload(a), cell_payload(clean));
  EXPECT_TRUE(a.report() == clean.report());
  // The scenario actually exercised timeouts and delays.
  EXPECT_GT(clean.report().harq.timeouts + clean.report().delayed_ind, 0u);
}

TEST(Snapshot, CellRestoreRefusesForeignFingerprint) {
  mac::FarmConfig cfg = small_farm();
  mac::Cell a(cfg.cell_config(0));
  a.step(0);
  const std::string payload = cell_payload(a);

  // Different seed => different trajectory fingerprint: must refuse.
  mac::FarmConfig other = cfg;
  other.seed = cfg.seed + 1;
  mac::Cell b(other.cell_config(0));
  sim::SnapshotReader r(payload);
  EXPECT_THROW(b.restore_state(r), sim::SnapshotError);
}

// ---------------------------------------------------------------------------
// Format known answers: payload CRCs and config fingerprints pinned at the
// values the format was frozen with, so a codec change that moves one byte
// fails here, not at a user's resume.
// ---------------------------------------------------------------------------

/// A HARQ entity mid-run: one block NACKed and retransmitted in flight, one
/// first transmission awaiting feedback, one ACKed and freed.
mac::HarqEntity harq_mid_run() {
  mac::HarqEntity harq(mac::HarqConfig{4, 4, true, 3});
  harq.start_new_data(100, 3);
  harq.start_new_data(60, 4);
  harq.start_new_data(40, 4);
  harq.on_feedback(0, false);
  harq.on_feedback(2, true);
  harq.grant_retx(0, 6);
  return harq;
}

/// Integer-only two-hart program: hart 1 parks in wfi, hart 0 counts and
/// stores into L1. No floating point, so the payload bytes depend on no
/// math library.
std::unique_ptr<iss::Machine> integer_machine_mid_run() {
  auto m = std::make_unique<iss::Machine>(tera::TeraPoolConfig::tiny(),
                                          iss::TimingConfig{}, 2);
  m->load_program(rvasm::assemble(R"(
    _start:
      csrr t0, mhartid
      bnez t0, park
      li t1, 0x100
      li t2, 0
      li t3, 1000
    loop:
      addi t2, t2, 3
      sw t2, 0(t1)
      addi t1, t1, 4
      addi t3, t3, -1
      bnez t3, loop
      li t4, 0x40000000
      sw t2, 0(t4)
    park:
      wfi
      j park
  )"));
  m->inject_hart_fault(0, 4000, /*hang=*/true);  // armed, fires past the cut
  const iss::RunResult cut = m->run(300);
  EXPECT_FALSE(cut.exited);
  EXPECT_TRUE(m->hart(1).state.in_wfi);
  EXPECT_EQ(m->hart_faults_applied(), 0u);
  return m;
}

TEST(SnapshotFormat, PayloadCrcsArePinned) {
  sim::SnapshotWriter h;
  harq_mid_run().save_state(h);
  EXPECT_EQ(h.size(), 176u);
  EXPECT_EQ(sim::crc32(h.payload().data(), h.size()), 0x6be50062u);

  const std::string m = machine_payload(*integer_machine_mid_run());
  EXPECT_EQ(m.size(), 1645u);
  EXPECT_EQ(sim::crc32(m.data(), m.size()), 0x8f64085du);
}

TEST(SnapshotFormat, ConfigFingerprintsArePinned) {
  rvasm::Program prog = rvasm::assemble("_start:\n  li a0, 5\n  wfi\n");
  EXPECT_EQ(iss::program_fingerprint(prog), 15375526749538582609ull);

  ran::ClusterPoolConfig pool;
  pool.problems_per_core = 2;
  pool.batch_cores = 8;
  EXPECT_EQ(ran::SlotScheduler::warm_key(pool, ran::mixed_geometry_groups()),
            382873630884338569ull);

  mac::FarmConfig cfg = small_farm();
  cfg.fault.enabled = true;
  cfg.fault.drop_indication_rate = 0.25;
  cfg.burst.enabled = true;
  cfg.harq.feedback_timeout_slots = 2;
  EXPECT_EQ(mac::Cell(cfg.cell_config(1)).config_fingerprint(),
            5473473222646957195ull);
}

TEST(SnapshotFormat, SlimSlotResultRoundTripsThroughItsFieldList) {
  ran::SlotResult s;
  s.tti = 41;
  s.problems = 96;
  s.bits = 3072;
  s.errors = 5;
  s.allocation_errors = {0, 5, 0};
  s.cluster_busy_cycles = {1200, 900};
  s.cluster_batches = {3, 2};
  s.cluster_reloads = {1, 0};
  s.cluster_reload_cycles = {77, 0};
  s.total_reloads = 1;
  s.total_reload_cycles = 77;
  s.total_instructions = 123456;
  s.symbol_cycles = {600, 600};
  s.slot_cycles = 1200;
  s.degraded = true;
  s.dead_clusters = {1};
  s.failed_batches = 2;
  s.hart_faults = 3;
  s.ecc_corrected = 4;
  s.ecc_detected = 6;
  s.ecc_silent = 7;

  sim::SnapshotWriter w;
  w.io(s);
  sim::SnapshotReader r(w.payload());
  ran::SlotResult t;
  r.io(t);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_TRUE(s == t);

  // Only slim results are snapshotted: detected bits must not be dropped
  // silently.
  s.detected_bits = {{1, 0}};
  sim::SnapshotWriter fat;
  EXPECT_THROW(fat.io(s), SimError);
}

// ---------------------------------------------------------------------------
// Farm snapshot files, the resume ladder, and checkpointed recovery.
// ---------------------------------------------------------------------------

TEST(Snapshot, ResumeLadderFallsPastCorruptedNewestSnapshot) {
  ScratchDir dir("ladder");
  mac::FarmConfig cfg = small_farm();
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;

  const mac::CellReport clean = mac::run_cell(cfg, 0);
  ASSERT_EQ(mac::list_cell_snapshots(dir.path, 0), (std::vector<u64>{4, 8}));

  // Corrupt the newest snapshot: resume must fall to TTI 4 and still finish
  // byte-identically.
  const std::string newest = mac::cell_snapshot_path(dir.path, 0, 8);
  std::string bytes = slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(newest, bytes);

  i64 from = -1;
  const mac::CellReport resumed = mac::run_cell(cfg, 0, true, &from);
  EXPECT_EQ(from, 4);
  EXPECT_TRUE(resumed == clean);

  // Truncate BOTH snapshots: the ladder bottoms out at a clean start.
  spit(newest, bytes.substr(0, 10));
  spit(mac::cell_snapshot_path(dir.path, 0, 4), "");
  const mac::CellReport fresh = mac::run_cell(cfg, 0, true, &from);
  EXPECT_EQ(from, -1);
  EXPECT_TRUE(fresh == clean);
}

TEST(Snapshot, CorruptSizeFieldIsRejectedBeforeAllocating) {
  // The header's 8-byte payload size is untrusted. Every single-bit flip of
  // it must be a SnapshotError - which the resume ladder catches - never a
  // multi-GiB allocation, std::bad_alloc or std::length_error.
  ScratchDir dir("size");
  mac::FarmConfig cfg = small_farm();
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::CellReport clean = mac::run_cell(cfg, 0);
  const std::string newest = mac::cell_snapshot_path(dir.path, 0, 8);
  const std::string whole = slurp(newest);
  for (size_t bit = 16 * 8; bit < 24 * 8; ++bit) {
    std::string bad = whole;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    spit(newest, bad);
    mac::Cell cell(cfg.cell_config(0));
    EXPECT_THROW(mac::load_cell_snapshot(cell, newest), sim::SnapshotError)
        << "size bit " << bit - 16 * 8 << " flipped";
  }
  // The ladder steps past the corrupt rung to the older snapshot.
  i64 from = -1;
  EXPECT_TRUE(mac::run_cell(cfg, 0, true, &from) == clean);
  EXPECT_EQ(from, 4);
}

TEST(Snapshot, EveryTruncationAndBitFlipOfARealSnapshotFails) {
  // A HARQ entity with blocks in flight: a real, small payload, so every
  // byte and every bit of the container can be swept.
  mac::HarqEntity harq(mac::HarqConfig{4, 4, true});
  harq.start_new_data(100);
  harq.start_new_data(60);
  harq.on_feedback(0, false);
  sim::SnapshotWriter w;
  harq.save_state(w);
  const u32 kind = 0x51524148;
  const std::string whole = sim::encode_snapshot(kind, w.payload());
  ASSERT_EQ(sim::decode_snapshot(whole, kind, "harq"), w.payload());
  for (size_t keep = 0; keep < whole.size(); ++keep)
    EXPECT_THROW(sim::decode_snapshot(whole.substr(0, keep), kind, "harq"),
                 sim::SnapshotError)
        << "truncated to " << keep;
  for (size_t bit = 0; bit < whole.size() * 8; ++bit) {
    std::string bad = whole;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_THROW(sim::decode_snapshot(bad, kind, "harq"), sim::SnapshotError)
        << "bit " << bit << " flipped";
  }
}

TEST(Snapshot, ResumedCellReportsFastForwardActivityOfItsOwnTtis) {
  // The fast-forward counters are not snapshotted, so a cell resumed at TTI
  // k must report the activity of TTIs k..N only - TTI count and batch
  // counters over the same horizon.
  ScratchDir dir("ffresume");
  mac::FarmConfig cfg = small_farm();
  cfg.ttis = 24;
  cfg.pool.fast_forward = true;
  cfg.pool.problems_per_core = 1;  // 4-problem PDUs leave batches to shrink
  cfg.checkpoint_every = 8;
  cfg.checkpoint_dir = dir.path;
  mac::run_cell(cfg, 0);

  const u32 k = 16;
  mac::Cell clean(cfg.cell_config(0));
  for (u32 t = 0; t < k; ++t) clean.step(t);
  const ran::SlotScheduler::FastForwardStats at_k = clean.ff_batch_stats();
  const u64 idle_k = clean.ff_idle_ttis();
  for (u32 t = k; t < cfg.ttis; ++t) clean.step(t);
  const ran::SlotScheduler::FastForwardStats at_n = clean.ff_batch_stats();

  i64 from = -1;
  mac::FarmResult::FfActivity ff;
  const mac::CellReport resumed = mac::run_cell(cfg, 0, true, &from, &ff);
  ASSERT_EQ(from, k);
  EXPECT_TRUE(resumed == clean.report());
  EXPECT_EQ(ff.ttis, cfg.ttis - k);
  EXPECT_EQ(ff.idle_ttis, clean.ff_idle_ttis() - idle_k);
  EXPECT_EQ(ff.batches.full_batches, at_n.full_batches - at_k.full_batches);
  EXPECT_EQ(ff.batches.shrunk_batches,
            at_n.shrunk_batches - at_k.shrunk_batches);
  EXPECT_EQ(ff.batches.cores_full, at_n.cores_full - at_k.cores_full);
  EXPECT_EQ(ff.batches.cores_run, at_n.cores_run - at_k.cores_run);
  EXPECT_GT(ff.batches.shrunk_batches, 0u);
}

TEST(Snapshot, CheckpointedCrashRecoveryResumesAndMatchesClean) {
  ScratchDir dir("farm");
  mac::FarmConfig clean = small_farm();
  const mac::FarmResult want = mac::run_farm(clean);

  mac::FarmConfig faulted = clean;
  faulted.shards = 2;
  faulted.policy = mac::FarmPolicy::kRetry;
  faulted.host_fault.crash_shard = 1;
  faulted.checkpoint_every = 4;
  faulted.checkpoint_dir = dir.path;
  const mac::FarmResult got = mac::run_farm(faulted);

  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t c = 0; c < want.cells.size(); ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_FALSE(got.failures.empty());
  const mac::ShardFailure& f = got.failures[0];
  EXPECT_EQ(f.shard, 1u);
  EXPECT_TRUE(f.recovered);
  // The recovery record says which ladder rung each cell restarted from;
  // the crashed worker ran its cells to completion before dying mid-stream,
  // so snapshots must exist and the retry must NOT have restarted clean.
  ASSERT_EQ(f.resume_ttis.size(), f.cells.size());
  for (const i64 t : f.resume_ttis) EXPECT_GT(t, 0);
}

TEST(Snapshot, FarmResumeFlagReproducesInterruptedSoak) {
  // Simulate an interrupted soak: checkpoint a full run, then re-run with
  // resume=true against the populated directory - the "resumed" soak picks
  // every cell up from its newest snapshot and must reproduce the clean
  // result exactly.
  ScratchDir dir("resume");
  mac::FarmConfig cfg = small_farm();
  const mac::FarmResult want = mac::run_farm(cfg);

  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::FarmResult seeded = mac::run_farm(cfg);
  ASSERT_EQ(seeded.cells.size(), want.cells.size());

  cfg.resume = true;
  const mac::FarmResult resumed = mac::run_farm(cfg);
  ASSERT_EQ(resumed.cells.size(), want.cells.size());
  for (size_t c = 0; c < want.cells.size(); ++c) {
    EXPECT_TRUE(seeded.cells[c] == want.cells[c]) << "cell " << c;
    EXPECT_TRUE(resumed.cells[c] == want.cells[c]) << "cell " << c;
  }
}

// ---------------------------------------------------------------------------
// Bisection.
// ---------------------------------------------------------------------------

TEST(Snapshot, BisectFindsFirstDegradedTti) {
  ScratchDir dir("bisect");
  mac::FarmConfig cfg = small_farm();
  cfg.cells = 1;
  cfg.ttis = 32;
  cfg.checkpoint_every = 8;
  cfg.checkpoint_dir = dir.path;
  cfg.fault.enabled = true;
  cfg.fault.cluster_fail_tti = 13;  // cluster dies at TTI 13 onward

  const mac::BisectPredicate pred = mac::parse_bisect_predicate("degraded");
  const mac::BisectResult res = mac::bisect_cell(cfg, 0, pred);
  EXPECT_EQ(res.first_bad_tti, 13);
  // O(log snapshots) restores + at most one checkpoint interval replayed.
  EXPECT_LE(res.ttis_replayed, 8u);
  EXPECT_LE(res.snapshots_loaded, 4u);
  EXPECT_EQ(res.window_start, 8);
  ASSERT_FALSE(res.window_trace.empty());
  EXPECT_NE(res.window_trace.back().find("degraded=1"), std::string::npos);
}

TEST(Snapshot, BisectReportsNeverWhenPredicateCannotFire) {
  ScratchDir dir("bisect_none");
  mac::FarmConfig cfg = small_farm();
  cfg.cells = 1;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::BisectPredicate pred = mac::parse_bisect_predicate("degraded");
  const mac::BisectResult res = mac::bisect_cell(cfg, 0, pred);
  EXPECT_EQ(res.first_bad_tti, -1);
}

TEST(Snapshot, BisectPredicateParsing) {
  EXPECT_EQ(mac::parse_bisect_predicate("miss").kind,
            mac::BisectPredicate::Kind::kDeadlineMiss);
  EXPECT_EQ(mac::parse_bisect_predicate("degraded").kind,
            mac::BisectPredicate::Kind::kDegradedSlot);
  const auto bler = mac::parse_bisect_predicate("bler=0.25");
  EXPECT_EQ(bler.kind, mac::BisectPredicate::Kind::kResidualBler);
  EXPECT_DOUBLE_EQ(bler.threshold, 0.25);
  EXPECT_THROW(mac::parse_bisect_predicate("nope"), SimError);
  EXPECT_THROW(mac::parse_bisect_predicate("bler=2"), SimError);
  EXPECT_THROW(mac::parse_bisect_predicate("bler="), SimError);
}

}  // namespace
}  // namespace tsim
