// TeraPool model tests: topology math, address routing (interleaved and
// sequential views), NUMA latencies, MMIO side effects, host access, DMA,
// and the lazily zeroed word regions behind L1/L2 with their snapshot coder.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tera/dma.h"
#include "tera/memory.h"
#include "tera/word_region.h"

namespace tsim::tera {
namespace {

TEST(Config, FullTopologyMatchesPaper) {
  const TeraPoolConfig c = TeraPoolConfig::full();
  EXPECT_EQ(c.num_cores(), 1024u);
  EXPECT_EQ(c.num_tiles(), 128u);
  EXPECT_EQ(c.l1_bytes(), 4u * 1024 * 1024);
  EXPECT_EQ(c.num_banks(), 128u * 16);
  EXPECT_EQ(c.tiles_per_group(), 32u);
}

TEST(Config, NumaLatencyHierarchy) {
  const TeraPoolConfig c = TeraPoolConfig::full();
  // Core 0 lives in tile 0, subgroup 0, group 0.
  EXPECT_EQ(c.numa_latency(0, 0), c.lat_local_tile);
  EXPECT_EQ(c.numa_latency(0, 1), c.lat_same_subgroup);   // tile 1, same subgroup
  EXPECT_EQ(c.numa_latency(0, 8), c.lat_same_group);      // subgroup 1, same group
  EXPECT_EQ(c.numa_latency(0, 32), c.lat_remote_group);   // group 1
  EXPECT_LE(c.lat_remote_group, 9u);  // paper: <9 cycles without contention
}

TEST(Config, ValidationCatchesBadShapes) {
  TeraPoolConfig c = TeraPoolConfig::tiny();
  c.banks_per_tile = 3;  // not a power of two
  EXPECT_THROW(c.validate(), SimError);
}

TEST(AddrMap, InterleavedStripesAcrossBanks) {
  const AddrMap map(TeraPoolConfig::tiny());
  const u32 nbanks = map.config().num_banks();
  // Consecutive words land in consecutive banks.
  for (u32 w = 0; w < nbanks * 2; ++w) {
    const auto r = map.route(kL1InterleavedBase + w * 4);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->space, Space::kL1);
    EXPECT_EQ(r->bank, w % nbanks);
  }
}

TEST(AddrMap, SequentialStaysInTile) {
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  const AddrMap map(cfg);
  for (u32 tile = 0; tile < cfg.num_tiles(); ++tile) {
    const u32 base = map.tile_sequential_base(tile);
    for (u32 off = 0; off < cfg.tile_l1_bytes; off += 256) {
      const auto r = map.route(base + off);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->tile, tile);
    }
  }
}

TEST(AddrMap, PhysicalWordsAreUniqueWithinEachView) {
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  const AddrMap map(cfg);
  std::vector<bool> seen(map.l1_words(), false);
  for (u32 off = 0; off < cfg.l1_bytes(); off += 4) {
    const auto r = map.route(kL1InterleavedBase + off);
    ASSERT_TRUE(r.has_value());
    ASSERT_LT(r->phys_word, map.l1_words());
    EXPECT_FALSE(seen[r->phys_word]) << "interleaved collision at off " << off;
    seen[r->phys_word] = true;
  }
  // The sequential view is a permutation of the same physical words.
  std::fill(seen.begin(), seen.end(), false);
  for (u32 off = 0; off < cfg.l1_bytes(); off += 4) {
    const auto r = map.route(kL1SequentialBase + off);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(seen[r->phys_word]) << "sequential collision at off " << off;
    seen[r->phys_word] = true;
  }
}

TEST(AddrMap, InterleavedWordsAreHostContiguous) {
  // The de-interleaved backing layout: interleaved word wi is stored at host
  // index wi (bank striping is a routing view transform, not a storage
  // property). Host bulk accessors and the ISS's vector sweeps rely on this.
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  const AddrMap map(cfg);
  for (u32 wi = 0; wi < cfg.l1_bytes() / 4; wi += 7) {
    const auto r = map.route(kL1InterleavedBase + wi * 4);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->phys_word, wi);
  }
}

TEST(AddrMap, SequentialAliasesSeedLayoutWordForWord) {
  // The sequential view must address the SAME physical words the seed
  // (bank-major) layout did: sequential offset -> (tile, word-in-tile wt)
  // -> bank = tile*bpt + wt%bpt, slot = wt/bpt -> interleaved word
  // slot*num_banks + bank. This is the DUT-visible aliasing contract
  // between the two L1 views; the backing-store refactor must not move it.
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  const AddrMap map(cfg);
  const u32 nbanks = cfg.num_banks();
  for (u32 off = 0; off < cfg.l1_bytes(); off += 4 * 5) {
    const u32 tile = off / cfg.tile_l1_bytes;
    const u32 wt = (off % cfg.tile_l1_bytes) / 4;
    const u32 bank = tile * cfg.banks_per_tile + (wt % cfg.banks_per_tile);
    const u32 slot = wt / cfg.banks_per_tile;
    const u32 aliased_wi = slot * nbanks + bank;
    const auto seq = map.route(kL1SequentialBase + off);
    const auto il = map.route(kL1InterleavedBase + aliased_wi * 4);
    ASSERT_TRUE(seq.has_value() && il.has_value());
    EXPECT_EQ(seq->bank, bank);
    EXPECT_EQ(seq->tile, tile);
    EXPECT_EQ(seq->phys_word, il->phys_word) << "aliasing broken at off " << off;
    EXPECT_EQ(il->bank, bank) << "views disagree on the owning bank";
  }
}

TEST(AddrMap, NonPow2BankCountRoutesByModulo) {
  // Non-power-of-two TOTAL bank counts are legal (banks_per_tile must be a
  // power of two, the tile count need not be): groups=3 gives 12 tiles x 4
  // banks = 48. The routing falls back from mask to modulo; the contiguous
  // phys_word layout and the view aliasing hold unchanged.
  TeraPoolConfig cfg = TeraPoolConfig::tiny();
  cfg.groups = 3;
  cfg.validate();
  const u32 nbanks = cfg.num_banks();
  ASSERT_EQ(nbanks, 48u);
  ASSERT_FALSE(is_pow2(nbanks));
  const AddrMap map(cfg);
  for (u32 wi = 0; wi < nbanks * 3 + 5; ++wi) {
    const auto r = map.route(kL1InterleavedBase + wi * 4);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->bank, wi % nbanks);
    EXPECT_EQ(r->tile, (wi % nbanks) / cfg.banks_per_tile);
    EXPECT_EQ(r->phys_word, wi);
  }
  // Both views stay collision-free permutations of the physical words.
  std::vector<bool> seen(map.l1_words(), false);
  for (u32 off = 0; off < cfg.l1_bytes(); off += 4) {
    const auto r = map.route(kL1InterleavedBase + off);
    ASSERT_TRUE(r.has_value());
    ASSERT_LT(r->phys_word, map.l1_words());
    EXPECT_FALSE(seen[r->phys_word]) << "interleaved collision at off " << off;
    seen[r->phys_word] = true;
  }
  std::fill(seen.begin(), seen.end(), false);
  for (u32 off = 0; off < cfg.l1_bytes(); off += 4) {
    const auto r = map.route(kL1SequentialBase + off);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(seen[r->phys_word]) << "sequential collision at off " << off;
    seen[r->phys_word] = true;
  }
}

TEST(AddrMap, RejectsUnmappedAddresses) {
  const AddrMap map(TeraPoolConfig::tiny());
  EXPECT_FALSE(map.route(TeraPoolConfig::tiny().l1_bytes() + 0x1000).has_value());
  EXPECT_FALSE(map.route(0x7000'0000).has_value());
  EXPECT_FALSE(map.route(kMmioBase + 0x2000).has_value());
}

TEST(Memory, LoadStoreAllWidths) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  EXPECT_FALSE(mem.store(0x100, 0x11223344, 4));
  EXPECT_EQ(mem.load(0x100, 4).value, 0x11223344u);
  EXPECT_EQ(mem.load(0x100, 2).value, 0x3344u);
  EXPECT_EQ(mem.load(0x102, 2).value, 0x1122u);
  EXPECT_EQ(mem.load(0x101, 1).value, 0x33u);
  // Byte store merges.
  EXPECT_FALSE(mem.store(0x101, 0xAA, 1));
  EXPECT_EQ(mem.load(0x100, 4).value, 0x1122AA44u);
  // Half store merges.
  EXPECT_FALSE(mem.store(0x102, 0xBEEF, 2));
  EXPECT_EQ(mem.load(0x100, 4).value, 0xBEEFAA44u);
}

TEST(Memory, OutOfRangeFaults) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  EXPECT_TRUE(mem.load(0x7000'0000, 4).fault);
  EXPECT_TRUE(mem.store(0x7000'0000, 1, 4));
}

TEST(Memory, MmioExitAndPutcharAndWake) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  u32 exit_code = 1000;
  u32 woken = 1000;
  mem.set_exit_handler([&](u32 c) { exit_code = c; });
  mem.set_wake_handler([&](u32 t) { woken = t; });
  mem.store(kMmioExit, 7, 4);
  EXPECT_EQ(exit_code, 7u);
  mem.store(kMmioPutchar, 'h', 4);
  mem.store(kMmioPutchar, 'i', 4);
  EXPECT_EQ(mem.console(), "hi");
  mem.store(kMmioWake, ~0u, 4);
  EXPECT_EQ(woken, ~0u);
}

TEST(Memory, AmoOperations) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  mem.store(0x200, 10, 4);
  EXPECT_EQ(mem.amo(rv::AmoOp::kAdd, 0x200, 5).value, 10u);
  EXPECT_EQ(mem.load(0x200, 4).value, 15u);
  EXPECT_EQ(mem.amo(rv::AmoOp::kSwap, 0x200, 99).value, 15u);
  EXPECT_EQ(mem.load(0x200, 4).value, 99u);
  EXPECT_EQ(mem.amo(rv::AmoOp::kMax, 0x200, 50).value, 99u);
  EXPECT_EQ(mem.load(0x200, 4).value, 99u);
  mem.store(0x200, static_cast<u32>(-5), 4);
  EXPECT_EQ(mem.amo(rv::AmoOp::kMin, 0x200, 3).value, static_cast<u32>(-5));
  EXPECT_EQ(mem.load(0x200, 4).value, static_cast<u32>(-5));  // signed min keeps -5
  EXPECT_EQ(mem.amo(rv::AmoOp::kMinu, 0x200, 3).value, static_cast<u32>(-5));
  EXPECT_EQ(mem.load(0x200, 4).value, 3u);  // unsigned min takes 3
}

TEST(Memory, HostAccessRoundTripsThroughInterleaving) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  std::vector<u8> data(257);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 3 + 1);
  mem.host_write(0x340 + 1, data);  // deliberately unaligned
  std::vector<u8> back(data.size());
  mem.host_read(0x341, back);
  EXPECT_EQ(back, data);
  // And the DUT-visible view agrees.
  EXPECT_EQ(mem.load(0x344, 1).value, data[3]);
}

TEST(Memory, ViewsAliasAcrossStoreAndLoad) {
  // Data written through one L1 view reads back through the other at the
  // seed aliasing relation (and vice versa) - on the DUT path and the host
  // bulk path alike.
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  ClusterMemory mem(cfg);
  const u32 nbanks = cfg.num_banks();
  // Sequential word 5 of tile 1 -> bank/slot -> interleaved alias.
  const u32 tile = 1, wt = 5;
  const u32 seq_addr = kL1SequentialBase + tile * cfg.tile_l1_bytes + wt * 4;
  const u32 bank = tile * cfg.banks_per_tile + (wt % cfg.banks_per_tile);
  const u32 slot = wt / cfg.banks_per_tile;
  const u32 il_addr = kL1InterleavedBase + (slot * nbanks + bank) * 4;
  EXPECT_FALSE(mem.store(seq_addr, 0xCAFEF00D, 4));
  EXPECT_EQ(mem.load(il_addr, 4).value, 0xCAFEF00Du);
  EXPECT_EQ(mem.host_read_word(il_addr), 0xCAFEF00Du);
  mem.host_write_words(il_addr, std::array<u32, 1>{0xDEADBEEF});
  EXPECT_EQ(mem.load(seq_addr, 4).value, 0xDEADBEEFu);
}

TEST(Memory, BulkAccessorsAtRegionBoundary) {
  // The memcpy fast path must hold right up to the last interleaved word
  // and fall back cleanly for sequential-region spans (per-word route loop).
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  ClusterMemory mem(cfg);
  const u32 end = cfg.l1_bytes();
  std::vector<u8> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i ^ 0x5A);
  mem.host_write(end - 64, data);
  std::vector<u8> back(64);
  mem.host_read(end - 64, back);
  EXPECT_EQ(back, data);
  // The very last word is DUT-visible at the matching interleaved address.
  EXPECT_EQ(mem.load(end - 4, 4).value, mem.host_read_word(end - 4));
  // A sequential-region span (not host-contiguous) round-trips too.
  const u32 seq = kL1SequentialBase + cfg.tile_l1_bytes - 32;
  std::vector<u8> sdata(48);  // crosses into the next tile's block
  for (size_t i = 0; i < sdata.size(); ++i) sdata[i] = static_cast<u8>(i * 7 + 3);
  mem.host_write(seq, sdata);
  std::vector<u8> sback(48);
  mem.host_read(seq, sback);
  EXPECT_EQ(sback, sdata);
  // Word accessors agree with the byte path in the sequential view.
  EXPECT_EQ(mem.host_read_word(seq), mem.load(seq, 4).value);
}

TEST(Memory, NonPow2BankCountRoundTrips) {
  TeraPoolConfig cfg = TeraPoolConfig::tiny();
  cfg.groups = 3;  // 48 banks: modulo routing path
  ClusterMemory mem(cfg);
  std::vector<u32> words(100);
  for (size_t i = 0; i < words.size(); ++i) words[i] = static_cast<u32>(i * 0x9E3779B9u);
  mem.host_write_words(0x40, words);
  for (size_t i = 0; i < words.size(); ++i)
    ASSERT_EQ(mem.load(0x40 + static_cast<u32>(i) * 4, 4).value, words[i]) << i;
}

TEST(Memory, L2HoldsProgramImage) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  const std::vector<u32> words = {1, 2, 3, 4};
  mem.load_program(kL2Base, words);
  EXPECT_EQ(mem.fetch(kL2Base + 8).value, 3u);
  EXPECT_TRUE(mem.fetch(kL2Base + 2).fault);  // misaligned fetch
}

TEST(Memory, ResetL1PreservesL2) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  mem.store(0x100, 42, 4);
  const std::vector<u32> words = {7};
  mem.load_program(kL2Base, words);
  mem.reset_l1();
  EXPECT_EQ(mem.load(0x100, 4).value, 0u);
  EXPECT_EQ(mem.load(kL2Base, 4).value, 7u);
}

TEST(Memory, ResetL1ZeroesL1MmioAndConsoleKeepsL2) {
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  ClusterMemory mem(cfg);
  const u32 l1_words = cfg.l1_bytes() / 4;
  for (u32 w = 0; w < l1_words; w += 97) mem.store(w * 4, w + 1, 4);
  mem.store(cfg.l1_bytes() - 4, 0xA5A5A5A5, 4);
  mem.store(kMmioScratch, 0x1234, 4);
  mem.store(kMmioPutchar, 'x', 4);
  std::vector<u32> l2(3000);
  for (size_t i = 0; i < l2.size(); ++i) l2[i] = static_cast<u32>(i * 0x9E3779B9u) | 1;
  mem.host_write_words(kL2Base + 0x1FF0, l2);

  mem.reset_l1();
  std::vector<u32> l1_back(l1_words, ~0u);
  mem.host_read(kL1InterleavedBase,
                {reinterpret_cast<u8*>(l1_back.data()), l1_back.size() * 4});
  EXPECT_EQ(std::count(l1_back.begin(), l1_back.end(), 0u), l1_words);
  EXPECT_EQ(mem.load(kMmioScratch, 4).value, 0u);
  EXPECT_EQ(mem.console(), "");
  std::vector<u32> l2_back(l2.size());
  mem.host_read(kL2Base + 0x1FF0,
                {reinterpret_cast<u8*>(l2_back.data()), l2_back.size() * 4});
  EXPECT_EQ(l2_back, l2);
  // The dropped L1 pages are writable again.
  mem.store(0x100, 42, 4);
  EXPECT_EQ(mem.load(0x100, 4).value, 42u);
}

// Every backing word of a memory, region by region: L1, L2, then MMIO.
std::vector<u32> all_words(const ClusterMemory& mem) {
  const TeraPoolConfig& cfg = mem.map().config();
  std::vector<u32> out((cfg.l1_bytes() + cfg.l2_bytes) / 4);
  auto bytes = [&](size_t word, size_t n) {
    return std::span<u8>(reinterpret_cast<u8*>(out.data() + word), n * 4);
  };
  mem.host_read(kL1InterleavedBase, bytes(0, cfg.l1_bytes() / 4));
  mem.host_read(kL2Base, bytes(cfg.l1_bytes() / 4, cfg.l2_bytes / 4));
  for (u32 a = kMmioBase; a < kMmioBase + 0x1000; a += 4)
    out.push_back(mem.host_read_word(a));
  return out;
}

TEST(Memory, RestoreOverDirtyMemoryReadsBackExactly) {
  const TeraPoolConfig cfg = TeraPoolConfig::tiny();
  ClusterMemory src(cfg);
  src.store(0x40, 0x11111111, 4);
  src.store(cfg.l1_bytes() - 4, 0x22222222, 4);
  src.store(kL2Base + 0x5000, 0x33333333, 4);
  src.store(kMmioScratch, 0x44, 4);
  src.store(kMmioPutchar, 'o', 4);
  sim::SnapshotWriter w;
  src.save_state(w);

  // Dirty every region, on words the snapshot holds as zero and as data.
  ClusterMemory dst(cfg);
  for (u32 a = 0; a < cfg.l1_bytes(); a += 4 * 61) dst.store(a, a | 1, 4);
  dst.store(0x40, 0xDEAD, 4);
  for (u32 off = 0; off < cfg.l2_bytes; off += 4 * 509) dst.store(kL2Base + off, off | 1, 4);
  dst.store(kL2Base + 0x5000, 0xBEEF, 4);
  dst.store(kMmioScratch, 0x99, 4);
  dst.store(kMmioBase + 0xFFC, 0x77, 4);
  dst.store(kMmioPutchar, 'z', 4);
  dst.store(kMmioPutchar, 'z', 4);

  sim::SnapshotReader r(w.payload(), "mem");
  dst.restore_state(r);
  EXPECT_EQ(all_words(dst), all_words(src));
  EXPECT_EQ(dst.console(), "o");
  EXPECT_EQ(dst.load(kMmioBase + 0xFFC, 4).value, 0u);
  EXPECT_EQ(dst.load(kL2Base + 0x5000, 4).value, 0x33333333u);

  // The restored memory snapshots to the same bytes.
  sim::SnapshotWriter again;
  dst.save_state(again);
  EXPECT_EQ(again.payload(), w.payload());
}

TEST(Memory, FullClusterConstructionTouchesFewPages) {
  // L1 + L2 of the paper-scale cluster are 36 MiB, about 9.2k pages if
  // zero-filled eagerly; lazily zeroed regions touch none of them.
  const auto minflt = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_minflt;
  };
  const long before = minflt();
  auto mem = std::make_unique<ClusterMemory>(TeraPoolConfig::full());
  const long faults = minflt() - before;
  EXPECT_LT(faults, 256) << "constructing a full() ClusterMemory touched " << faults
                         << " pages";
  EXPECT_EQ(mem->load(kL2Base + 32 * 1024 * 1024 - 4, 4).value, 0u);
}

// The zero-run encoder as first written: a plain word-by-word scan. The
// page-skipping encoder must emit exactly these bytes.
std::string reference_encode(const std::vector<u32>& v) {
  sim::SnapshotWriter w;
  const size_t n = v.size();
  w.write_u64(n);
  size_t i = 0;
  while (i < n) {
    size_t z = i;
    while (z < n && v[z] == 0) ++z;
    size_t k = z;
    size_t zeros = 0;
    while (k < n) {
      if (v[k] == 0) {
        if (++zeros >= kMinZeroRun) break;
      } else {
        zeros = 0;
      }
      ++k;
    }
    size_t e = k;
    while (e > z && v[e - 1] == 0) --e;
    w.write_u64(z - i);
    w.write_u64(e - z);
    if (e > z) w.write_bytes(v.data() + z, (e - z) * sizeof(u32));
    i = (e > z) ? e : z;
  }
  return w.payload();
}

TEST(WordRegion, PageSkippingEncoderMatchesReference) {
  constexpr size_t kPage = 1024;  // words per 4 KiB page
  std::vector<std::pair<std::string, std::vector<u32>>> cases;
  const auto add = [&](std::string name, std::vector<u32> v) {
    cases.emplace_back(std::move(name), std::move(v));
  };
  add("empty", {});
  add("all zero", std::vector<u32>(5 * kPage + 7, 0));
  add("all non-zero", std::vector<u32>(3 * kPage + 5, 0xFFFFFFFF));
  {
    std::vector<u32> v(6 * kPage + 3, 0);
    for (size_t p = 0; p < 6; ++p) {
      v[p * kPage] = static_cast<u32>(p + 1);              // first word of a page
      v[p * kPage + kPage - 1] = static_cast<u32>(p + 10);  // last word of a page
    }
    v.back() = 5;
    add("page edges", std::move(v));
  }
  for (const size_t gap : {kMinZeroRun - 1, kMinZeroRun, kMinZeroRun + 1}) {
    for (const size_t before : {size_t{0}, size_t{1}, gap / 2, gap - 1, gap}) {
      // A zero run of `gap` words straddling the page boundary at 2*kPage,
      // with `before` of its words in the lower page.
      std::vector<u32> v(4 * kPage, 0);
      const size_t start = 2 * kPage - before;
      v[start - 1] = 0xABCD;
      v[start + gap] = 0x1234;
      add("gap " + std::to_string(gap) + " straddling at " + std::to_string(before),
          std::move(v));
    }
  }
  Rng rng(0x5A11);
  for (int t = 0; t < 24; ++t) {
    std::vector<u32> v(kPage * (1 + rng.below(8)) + rng.below(kPage), 0);
    const u64 density = 1 + rng.below(200);  // non-zero about 1 in density
    for (auto& x : v)
      if (rng.below(density) == 0) x = static_cast<u32>(rng.next_u64()) | 1;
    // Occasionally leave whole pages dense or empty.
    if (!v.empty() && rng.below(2) == 0) {
      const size_t p = rng.below(v.size() / kPage + 1) * kPage;
      for (size_t i = p; i < std::min(v.size(), p + kPage); ++i)
        v[i] = t % 2 == 0 ? static_cast<u32>(i) | 1 : 0;
    }
    add("seeded " + std::to_string(t), std::move(v));
  }

  for (const auto& [name, v] : cases) {
    sim::SnapshotWriter w;
    code_words(w, v);
    ASSERT_EQ(w.payload(), reference_encode(v)) << name;

    // And it decodes back in place over a dirty region.
    WordRegion region(v.size());
    for (auto& x : region) x = 0xDEADBEEF;
    sim::SnapshotReader r(w.payload(), "words");
    code_words(r, region);
    ASSERT_TRUE(std::equal(region.begin(), region.end(), v.begin(), v.end())) << name;
  }
}

TEST(WordRegion, DecodeChecksSizeBeforeTouchingTheRegion) {
  sim::SnapshotWriter w;
  code_words(w, std::vector<u32>(100, 7));
  WordRegion region(99);
  region[5] = 3;
  sim::SnapshotReader r(w.payload(), "words");
  EXPECT_THROW(code_words(r, region), sim::SnapshotError);
  EXPECT_EQ(region[5], 3u);
}

TEST(Dma, CopiesBetweenRegionsAndReportsCycles) {
  ClusterMemory mem(TeraPoolConfig::tiny());
  Dma dma(mem);
  std::vector<u8> src(512);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<u8>(i);
  mem.host_write(kL2Base + 0x1000, src);
  const u64 cycles = dma.transfer(/*dst=*/0x400, /*src=*/kL2Base + 0x1000, 512);
  EXPECT_GT(cycles, 0u);
  std::vector<u8> out(512);
  mem.host_read(0x400, out);
  EXPECT_EQ(out, src);
  EXPECT_EQ(dma.busy_cycles(), cycles);
}

}  // namespace
}  // namespace tsim::tera
