// farm_soak: four closed-loop HARQ cells with bursty, diurnal arrivals over
// the three mixed geometries, on 64-core clusters at one problem per core,
// checkpointing at a fixed interval, forked over shards by mac::run_farm.
// Every round is the same soak, so every round must return the first
// round's reports exactly.
//
// The outputs are checked by driving the same cells inline in this process
// with Cell::step (the call run_cell makes). At every checkpoint the cell's
// snapshot is restored into a twin, and the twin's next TTIs are taken apart
// into the MAC/L1 calls (build_request, build_workload, run_slot,
// apply_indication); those TTIs are checked against the reference detector
// and against the uninterrupted cell.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "dse/space.h"
#include "mac/farm.h"
#include "refdet.h"
#include "replay.h"
#include "sim/report.h"
#include "workloads.h"

namespace e2e {

using namespace tsim;

namespace {

mac::FarmConfig farm_config(const WorkloadOptions& opt) {
  const bool tiny = opt.tiny;
  mac::FarmConfig cfg;
  cfg.seed = Rng::derive_seed(opt.seed, {0xFA21});
  cfg.groups = ran::mixed_geometry_groups();
  cfg.sc_per_pdu = 4;
  cfg.harq.enabled = true;
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.3;
  cfg.burst.mean_on_slots = 6.0;
  cfg.burst.arrival_prob = 0.9;
  cfg.burst.diurnal_period_ttis = 100.0;
  cfg.burst.diurnal_depth = 0.9;
  cfg.pool.cluster = dse::cluster_for_cores(64);
  cfg.pool.problems_per_core = 1;
  cfg.pool.host_threads = 1;
  cfg.pool.fast_forward = true;
  cfg.shard_timeout_s = 120.0;
  cfg.checkpoint_dir = opt.scratch + (tiny ? "/farm_probe" : "/farm_ckpt");
  if (tiny) {
    cfg.cells = 2;
    cfg.shards = 2;
    cfg.ttis = 8;
    cfg.ues_per_cell = 16;
    cfg.carrier.bandwidth_hz = 2e6;
    cfg.carrier.symbols_per_slot = 2;
    cfg.checkpoint_every = 4;
  } else {
    const u32 nproc = std::max(1u, std::thread::hardware_concurrency());
    cfg.cells = 4;
    cfg.shards = std::min(4u, nproc);
    cfg.ttis = 1000;
    cfg.ues_per_cell = 12;
    cfg.carrier.bandwidth_hz = 10e6;
    cfg.carrier.symbols_per_slot = 4;
    cfg.checkpoint_every = 100;
  }
  if (opt.shards != 0) cfg.shards = opt.shards;
  return cfg;
}

void reset_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

class Farm final : public Workload {
 public:
  explicit Farm(const WorkloadOptions& opt)
      : cfg_(farm_config(opt)), drive_dir_(cfg_.checkpoint_dir + "_inline") {}

  int setups() const override { return 15; }

  void setup() override {
    // run_farm's workers construct these cells in their own processes; the
    // same constructors are timed here, in this process.
    cells_.clear();
    for (u32 c = 0; c < cfg_.cells; ++c)
      cells_.push_back(std::make_unique<mac::Cell>(cfg_.cell_config(c)));
    {
      Span s("sched.ctor");
      sched_ = std::make_unique<ran::SlotScheduler>(cfg_.pool, cfg_.groups);
    }
  }

  void round(RunRecord& rec) override {
    if (rec.kinds.empty()) rec.kinds.push_back(OpKind{"soak", 0, {}, {}});
    reset_dir(cfg_.checkpoint_dir);
    const double t0 = now_s();
    const double c0 = cpu_s();
    const u64 ops = static_cast<u64>(cfg_.cells) * cfg_.ttis;
    rec.attempted += ops;
    try {
      mac::FarmResult res;
      {
        Span s("farm.run_farm");
        res = mac::run_farm(cfg_);
      }
      rec.kinds[0].wall.push_back(now_s() - t0);
      rec.kinds[0].cpu.push_back(cpu_s() - c0);
      shard_failures_ += res.failures.size();
      const std::vector<u32> missing = res.missing_cells();
      missing_cells_ += missing.size();
      rec.failed += static_cast<u64>(missing.size()) * cfg_.ttis;
      for (const mac::CellReport& r : res.cells) rec.kinds[0].detected += r.pdus * cfg_.sc_per_pdu;
      if (first_.empty()) {
        first_ = res.cells;
      } else if (res.cells != first_) {
        ++mismatches_;
      }
    } catch (const SimError& e) {
      rec.kinds[0].wall.push_back(now_s() - t0);
      rec.kinds[0].cpu.push_back(cpu_s() - c0);
      rec.failed += ops;
      failed_rounds_ += 1;
      rec.ledger.note(std::string("run_farm failed: ") + e.what());
    }
  }

  void check(RunRecord& rec) override {
    prepare();
    verify(rec, drive());
  }

  void traced(RunRecord& rec) override {
    round(rec);  // the sharded soak: farm.run_farm, and the reports to compare
    rec.rounds = 1;
    const double farm_wall = rec.kinds[0].wall.back();
    prepare();
    Drive plain;
    rec.untraced_wall = untraced_wall([&] { plain = drive(); });
    prepare();
    const double t = now_s();
    Drive d;
    {
      Span s("timed");
      d = drive(true);
    }
    rec.traced_wall = now_s() - t;
    prepare();
    rec.untraced_wall = std::min(rec.untraced_wall, untraced_wall([&] { drive(); }));
    // Supervisor overhead: run_farm wall minus the slowest shard's summed
    // inline cell time (cells go to shards round-robin).
    std::vector<double> shard_s(cfg_.shards, 0.0);
    for (u32 c = 0; c < cfg_.cells; ++c) shard_s[c % cfg_.shards] += plain.cell_s[c];
    g_trace.count("farm.overhead_s",
                  farm_wall - *std::max_element(shard_s.begin(), shard_s.end()));
    g_trace.count("farm.runs", 1);
    // Report codec: encode each report as a pipe row and parse it back.
    bool codec_ok = true;
    const std::vector<std::string> header = mac::cell_report_header();
    for (const mac::CellReport& r : first_) {
      Span s("farm.codec");
      const std::vector<std::string> row = mac::cell_report_row(r);
      std::vector<std::pair<std::string, std::string>> kv;
      for (size_t i = 0; i < header.size() && i < row.size(); ++i)
        kv.emplace_back(header[i], row[i]);
      codec_ok = codec_ok && mac::cell_report_from_row(kv) == r;
    }
    rec.ledger.check("farm: report rows round-trip through the codec", codec_ok);
    // Every PDU runs as its own batch: its share of a batch's problem slots,
    // at the default pool (tiny 16-core cluster) and at this workload's pool.
    const auto fill = [&](const ran::SlotScheduler& s) {
      const kern::MmseLayout& lay = s.layout_for_group(0);
      return 100.0 * cfg_.sc_per_pdu / (lay.num_cores * lay.problems_per_core);
    };
    rec.ledger.note(sim::strf(
        "batch fill of one %u-subcarrier PDU: %.1f%% at the default pool, %.1f%% here",
        cfg_.sc_per_pdu, fill(ran::SlotScheduler(ran::ClusterPoolConfig{}, cfg_.groups)),
        fill(*sched_)));
    // One busy slot taken apart layer by layer on a scheduler of the same
    // configuration.
    if (!d.busy.allocations.empty())
      decompose_slot(*sched_, cfg_.groups, d.busy, rec.ledger, "farm slot");
    verify(rec, d);
  }

 private:
  struct Drive {
    std::vector<mac::CellReport> reports;
    std::vector<double> cell_s;  // per cell: time in step() and snapshot saves
    u64 problems = 0;
    bool twins_match = true;
    u64 twin_bits = 0;
    u64 twin_dut_errors = 0;
    u64 twin_ref_errors = 0;
    ran::SlotWorkload busy;  // the sampled twin slot with the most allocations
  };

  void verify(RunRecord& rec, const Drive& d) {
    Ledger& L = rec.ledger;
    L.check("farm: no shard failed and no cell is missing",
            shard_failures_ == 0 && missing_cells_ == 0 && failed_rounds_ == 0);
    L.check("farm: every round returns the first round's reports", mismatches_ == 0);
    L.check("farm: sharded reports equal the inline drive's reports",
            !first_.empty() && d.reports == first_);
    bool harq_ok = !d.reports.empty();
    u64 pdus = 0;
    for (const mac::CellReport& r : d.reports) {
      harq_ok = harq_ok && r.pdus == r.harq.new_tx + r.harq.retx &&
                r.crc_fail <= r.pdus &&
                r.residual_bler() <= r.crc_fail_fraction() + 1e-12;
      pdus += r.pdus;
    }
    L.check("farm: HARQ identities (PDUs = new + retx, CRC failures <= PDUs, "
            "residual BLER <= CRC-failure rate)", harq_ok);
    L.check("farm: detections = PDUs x subcarriers per PDU",
            d.problems == pdus * cfg_.sc_per_pdu);
    L.check("farm: restored twins reproduce the uninterrupted cells", d.twins_match);
    const double ber_dut = d.twin_bits == 0 ? 1.0 : double(d.twin_dut_errors) / d.twin_bits;
    const double ber_ref = d.twin_bits == 0 ? 0.0 : double(d.twin_ref_errors) / d.twin_bits;
    L.check("farm: DUT BER within tolerance of the reference detector",
            d.twin_bits > 0 && std::abs(ber_dut - ber_ref) <= ber_tolerance(cfg_.pool.prec));
    L.note(sim::strf("ber farm %s: DUT %.5f vs reference %.5f over %llu sampled bits",
                     std::string(kern::name_of(cfg_.pool.prec)).c_str(), ber_dut,
                     ber_ref, static_cast<unsigned long long>(d.twin_bits)));
    // A full-buffer slot of the farm's carrier supplies the sampled 4x4 batch.
    ran::TrafficConfig tc;
    tc.carrier = cfg_.carrier;
    tc.groups = cfg_.groups;
    tc.seed = cfg_.seed;
    const ran::SlotWorkload slot = ran::TrafficGenerator(tc).slot(0);
    for (const ran::Allocation& a : slot.allocations) {
      if (a.group != 0) continue;
      check_uarch(L, "farm 4x4", cfg_.pool.cluster, 16, cfg_.groups[0].ntx,
                  cfg_.groups[0].nrx, cfg_.pool.prec, a.batch.problems);
      break;
    }
    L.ops["cell_ttis"].first += rec.attempted;
    L.ops["cell_ttis"].second += rec.failed;
    L.ops["shard_failures"].first += rec.rounds * cfg_.shards;
    L.ops["shard_failures"].second += shard_failures_;
    L.ops["missing_cells"].first += rec.rounds * cfg_.cells;
    L.ops["missing_cells"].second += missing_cells_;
    L.ops["detections"].first += rec.rounds * pdus * cfg_.sc_per_pdu;
  }

  /// Fresh cells and an empty snapshot directory for the next drive.
  void prepare() {
    if (cells_.empty() || cells_.front()->ttis_run() != 0) setup();
    reset_dir(drive_dir_);
  }

  /// Drives every cell inline for cfg_.ttis TTIs (see the file comment).
  Drive drive(bool keep_busy = false) {
    Drive d;
    d.cell_s.assign(cfg_.cells, 0.0);
    for (u32 c = 0; c < cfg_.cells; ++c) {
      mac::Cell& cell = *cells_[c];
      const auto ff0 = cell.ff_batch_stats();
      std::vector<std::pair<u32, ran::SlotResult>> twin_results;
      for (u32 tti = 0; tti < cfg_.ttis;) {
        double t = now_s();
        {
          Span s("mac.step");
          cell.step(tti);
        }
        ++tti;
        const bool ckpt = cfg_.checkpoint_every != 0 &&
                          tti % cfg_.checkpoint_every == 0 && tti < cfg_.ttis;
        if (ckpt) {
          Span s("snapshot.save");
          mac::save_cell_snapshot(cell, drive_dir_);
        }
        d.cell_s[c] += now_s() - t;
        if (ckpt) {
          const std::string path = mac::cell_snapshot_path(drive_dir_, c, tti);
          std::error_code ec;
          g_trace.count("snapshot.bytes",
                        static_cast<double>(std::filesystem::file_size(path, ec)));
          g_trace.count("snapshot.files", 1);
          Span s("twin");
          run_twin(cell, path, d, twin_results, keep_busy);
        }
      }
      {
        Span s("mac.report");
        d.reports.push_back(cell.report());
      }
      const std::vector<ran::SlotResult>& results = cell.slot_results();
      for (const auto& [tti, b] : twin_results) {
        const ran::SlotResult& a = results.at(tti);
        d.twins_match = d.twins_match && a.problems == b.problems && a.bits == b.bits &&
                        a.errors == b.errors && a.slot_cycles == b.slot_cycles &&
                        a.total_reloads == b.total_reloads;
      }
      for (const ran::SlotResult& r : results) {
        d.problems += r.problems;
        g_trace.count("sched.reloads", static_cast<double>(r.total_reloads));
      }
      g_trace.count("mac.idle_ttis", static_cast<double>(cell.ff_idle_ttis()));
      count_ff(ff0, cell.ff_batch_stats(), cfg_.pool.problems_per_core);
    }
    g_trace.count("sched.problems", static_cast<double>(d.problems));
    g_trace.count("sched.slots", static_cast<double>(cfg_.cells) * cfg_.ttis);
    return d;
  }

  /// Restores `path` into a fresh twin and runs the twin's next kTwinTtis
  /// TTIs through the MAC/L1 calls one by one, checking each against the
  /// reference detector. Appends the twin's slot results, which the
  /// uninterrupted cell must reproduce.
  void run_twin(const mac::Cell& cell, const std::string& path, Drive& d,
                std::vector<std::pair<u32, ran::SlotResult>>& out, bool keep_busy) {
    const u32 first = cell.ttis_run();
    mac::Cell twin(cell.config());
    u64 restored = 0;
    {
      Span s("snapshot.load");
      restored = mac::load_cell_snapshot(twin, path);
    }
    d.twins_match = d.twins_match && restored == first;
    for (u32 tti = first; tti < std::min(cfg_.ttis, first + kTwinTtis); ++tti) {
      mac::SlotRequest req;
      {
        Span s("mac.request");
        req = twin.build_request(tti);
      }
      ran::SlotWorkload wl;
      {
        Span s("traffic.slot");
        wl = twin.build_workload(req);
      }
      {
        Span s("check.reference");
        d.twin_ref_errors += reference_slot_errors(wl, cfg_.groups);
      }
      mac::SlotIndication ind;
      {
        Span s("mac.slot");
        ind = twin.run_slot(req);
      }
      {
        Span s("mac.harq");
        twin.apply_indication(ind);
      }
      for (const mac::CrcResult& crc : ind.crcs) {
        d.twin_bits += crc.bits;
        d.twin_dut_errors += crc.bit_errors;
      }
      if (keep_busy && wl.allocations.size() > d.busy.allocations.size()) d.busy = wl;
      out.emplace_back(tti, twin.slot_results().back());
    }
  }

  /// TTIs each restored twin runs call by call after its checkpoint.
  static constexpr u32 kTwinTtis = 10;

  mac::FarmConfig cfg_;
  std::string drive_dir_;
  std::vector<std::unique_ptr<mac::Cell>> cells_;
  std::unique_ptr<ran::SlotScheduler> sched_;
  std::vector<mac::CellReport> first_;
  u64 mismatches_ = 0;
  u64 shard_failures_ = 0;
  u64 missing_cells_ = 0;
  u64 failed_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_farm(const WorkloadOptions& opt) {
  return std::make_unique<Farm>(opt);
}

}  // namespace e2e
