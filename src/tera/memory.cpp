#include "tera/memory.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace tsim::tera {

ClusterMemory::ClusterMemory(const TeraPoolConfig& cfg)
    : map_(cfg), l1_(map_.l1_words()), l2_(map_.l2_words()), mmio_(0x1000 / 4, 0) {}


void ClusterMemory::mmio_store(u32 word_index, u32 value) {
  const u32 addr = kMmioBase + word_index * 4;
  switch (addr) {
    case kMmioExit:
      if (on_exit_) on_exit_(value);
      break;
    case kMmioPutchar:
      console_.push_back(static_cast<char>(value & 0xFF));
      break;
    case kMmioWake:
      if (on_wake_) on_wake_(value);
      break;
    default:
      atomic_store_word(mmio_[word_index], value);
      break;
  }
}


rv::MemResult ClusterMemory::amo(rv::AmoOp op, u32 addr, u32 value) {
  const auto r = map_.route(addr);
  if (!r) return {0, true};
  u32& slot = (r->space == Space::kL1)   ? l1_[r->phys_word]
              : (r->space == Space::kL2) ? l2_[r->phys_word]
                                         : mmio_[r->phys_word];
  std::atomic_ref<u32> ref(slot);
  using rv::AmoOp;
  switch (op) {
    case AmoOp::kSwap: return {ref.exchange(value, std::memory_order_acq_rel), false};
    case AmoOp::kAdd: return {ref.fetch_add(value, std::memory_order_acq_rel), false};
    case AmoOp::kXor: return {ref.fetch_xor(value, std::memory_order_acq_rel), false};
    case AmoOp::kAnd: return {ref.fetch_and(value, std::memory_order_acq_rel), false};
    case AmoOp::kOr: return {ref.fetch_or(value, std::memory_order_acq_rel), false};
    case AmoOp::kMin:
    case AmoOp::kMax:
    case AmoOp::kMinu:
    case AmoOp::kMaxu: {
      u32 old = ref.load(std::memory_order_acquire);
      while (true) {
        u32 next = old;
        switch (op) {
          case AmoOp::kMin:
            next = (static_cast<i32>(value) < static_cast<i32>(old)) ? value : old;
            break;
          case AmoOp::kMax:
            next = (static_cast<i32>(value) > static_cast<i32>(old)) ? value : old;
            break;
          case AmoOp::kMinu: next = value < old ? value : old; break;
          default: next = value > old ? value : old; break;
        }
        if (ref.compare_exchange_weak(old, next, std::memory_order_acq_rel)) return {old, false};
      }
    }
  }
  return {0, true};
}

rv::MemResult ClusterMemory::fetch(u32 addr) {
  if ((addr & 3) != 0) return {0, true};
  return load(addr, 4);
}

// Both bulk regions are host-contiguous: the interleaved L1 view stores
// word i at l1_[i] (bank striping is a routing view transform, see
// addr_map.h) and L2 always was a flat array. Host-side bulk access over
// either region is therefore a single memcpy; only the tile-major
// sequential view still needs the per-word route loop.
const u32* ClusterMemory::contiguous_words(u32 addr, size_t nwords) const {
  const u64 end = static_cast<u64>(addr) + static_cast<u64>(nwords) * 4;
  if (addr < kL1SequentialBase && end <= static_cast<u64>(map_.l1_words()) * 4)
    return l1_.data() + addr / 4;
  if (addr >= kL2Base && end - kL2Base <= static_cast<u64>(map_.l2_words()) * 4)
    return l2_.data() + (addr - kL2Base) / 4;
  return nullptr;
}

void ClusterMemory::host_write(u32 addr, std::span<const u8> bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    // Byte offset k of a contiguous word region is host byte k on a
    // little-endian host, so byte spans copy directly too.
    const u32 base = addr & ~3u;
    const size_t span = (addr - base) + bytes.size();
    if (const u32* w = contiguous_words(base, (span + 3) / 4)) {
      std::memcpy(const_cast<u8*>(reinterpret_cast<const u8*>(w)) + (addr & 3),
                  bytes.data(), bytes.size());
      return;
    }
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    const u32 a = addr + static_cast<u32>(i);
    const auto r = map_.route(a);
    check(r.has_value() && r->space != Space::kMmio, "host_write: unmapped address");
    u32& slot = (r->space == Space::kL1) ? l1_[r->phys_word] : l2_[r->phys_word];
    const u32 shift = (a & 3) * 8;
    slot = (slot & ~(0xFFu << shift)) | (static_cast<u32>(bytes[i]) << shift);
  }
}

void ClusterMemory::host_read(u32 addr, std::span<u8> out) const {
  if constexpr (std::endian::native == std::endian::little) {
    const u32 base = addr & ~3u;
    const size_t span = (addr - base) + out.size();
    if (const u32* w = contiguous_words(base, (span + 3) / 4)) {
      std::memcpy(out.data(), reinterpret_cast<const u8*>(w) + (addr & 3), out.size());
      return;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    const u32 a = addr + static_cast<u32>(i);
    const auto r = map_.route(a);
    check(r.has_value(), "host_read: unmapped address");
    const u32 word = word_load(*r);
    out[i] = static_cast<u8>(word >> ((a & 3) * 8));
  }
}

void ClusterMemory::host_write_words(u32 addr, std::span<const u32> words) {
  check((addr & 3) == 0, "host_write_words: unaligned");
  if (const u32* w = contiguous_words(addr, words.size())) {
    std::memcpy(const_cast<u32*>(w), words.data(), words.size() * 4);
    return;
  }
  for (size_t i = 0; i < words.size(); ++i) {
    const auto r = map_.route(addr + static_cast<u32>(i * 4));
    check(r.has_value() && r->space != Space::kMmio, "host_write_words: unmapped");
    u32& slot = (r->space == Space::kL1) ? l1_[r->phys_word] : l2_[r->phys_word];
    slot = words[i];
  }
}

u32 ClusterMemory::host_read_word(u32 addr) const {
  check((addr & 3) == 0, "host_read_word: unaligned");
  const auto r = map_.route(addr);
  check(r.has_value(), "host_read_word: unmapped");
  return word_load(*r);
}

void ClusterMemory::load_program(u32 base, std::span<const u32> words) {
  host_write_words(base, words);
}

void ClusterMemory::reset_l1() {
  l1_.zero();
  std::fill(mmio_.begin(), mmio_.end(), 0u);
  console_.clear();
}

namespace {
constexpr u32 kMemoryTag = 0x314D454D;  // "MEM1"
}  // namespace

template <class Self, class Ar>
void ClusterMemory::io_state(Self& m, Ar& a) {
  a.io_tag(kMemoryTag, "ClusterMemory");
  code_words(a, m.l1_);
  code_words(a, m.l2_);
  code_words(a, m.mmio_);
  a.io(m.console_);
}

void ClusterMemory::save_state(sim::SnapshotWriter& w) const {
  io_state(*this, w);
}

void ClusterMemory::restore_state(sim::SnapshotReader& r) {
  io_state(*this, r);
}

}  // namespace tsim::tera
