// Instruction semantics, templated on the concrete memory type so engines
// that execute against a final memory class (tera::ClusterMemory) get fully
// devirtualized, inlinable accesses. Included by rv/exec.h; do not include
// directly.
#pragma once

#include <bit>
#include <cmath>

#include "rv/fp_formats.h"
#include "rv/hart_state.h"
#include "rv/inst.h"
#include "rv/mem_iface.h"
#include "softfloat/minifloat.h"
#include "softfloat/packed.h"

namespace tsim::rv {
namespace exec_detail {

using sf::F16;
using sf::lane16;
using sf::lane8;
using sf::pack16;
using sf::pack8;

// ---- fp32 helpers (host IEEE-754 single precision) ----
inline float as_f32(u32 b) { return std::bit_cast<float>(b); }
inline u32 f32_bits(float f) { return std::bit_cast<u32>(f); }

inline u32 f32_min(u32 a, u32 b) {
  const float fa = as_f32(a), fb = as_f32(b);
  if (std::isnan(fa) && std::isnan(fb)) return 0x7FC00000u;
  if (std::isnan(fa)) return b;
  if (std::isnan(fb)) return a;
  if (fa == fb) return (std::signbit(fa) ? a : b);
  return fa < fb ? a : b;
}
inline u32 f32_max(u32 a, u32 b) {
  const float fa = as_f32(a), fb = as_f32(b);
  if (std::isnan(fa) && std::isnan(fb)) return 0x7FC00000u;
  if (std::isnan(fa)) return b;
  if (std::isnan(fb)) return a;
  if (fa == fb) return (std::signbit(fa) ? b : a);
  return fa > fb ? a : b;
}

inline i32 f32_to_i32(float f) {
  if (std::isnan(f)) return INT32_MAX;
  if (f >= 2147483647.0f) return INT32_MAX;
  if (f <= -2147483648.0f) return INT32_MIN;
  return static_cast<i32>(f);
}
inline u32 f32_to_u32(float f) {
  if (std::isnan(f)) return UINT32_MAX;
  if (f >= 4294967295.0f) return UINT32_MAX;
  if (f <= 0.0f) return 0;
  return static_cast<u32>(f);
}

// fp16 value in an x-register: low 16 bits, result sign-extended per Zhinx.
inline u32 h_box(u32 h16) { return static_cast<u32>(sign_extend(h16 & 0xFFFF, 16)); }

// Complex fp16 MAC with 32-bit internal datapath: the product terms are
// rounded once to binary32 (the multiplier's internal precision), then
// accumulated into the packed binary16 register (second rounding).
template <typename R>
[[gnu::always_inline]] inline u32 cdotp_h(u32 acc, u32 a, u32 b, bool conj_a, R r) {
  const double are = F16::to_double(lane16(a, 0)), aim = F16::to_double(lane16(a, 1));
  const double bre = F16::to_double(lane16(b, 0)), bim = F16::to_double(lane16(b, 1));
  const double sim = conj_a ? -aim : aim;
  const float prod_re = static_cast<float>(are * bre - sim * bim);
  const float prod_im = static_cast<float>(are * bim + sim * bre);
  const u32 re =
      r.template round<F16>(static_cast<double>(prod_re) + F16::to_double(lane16(acc, 0)));
  const u32 im =
      r.template round<F16>(static_cast<double>(prod_im) + F16::to_double(lane16(acc, 1)));
  return pack16(static_cast<u16>(re), static_cast<u16>(im));
}

// ---- fp16 ALU lane kernels ----
// These ops are pure functions of their source words: no memory, CSR,
// control or fault state. `fp16_alu<kOp>` is each one's only semantics. The
// interpreter calls it with sf::Exact; the ISS lockstep sweep evaluates it
// column-wise across a batch with sf::FastOrFlag and re-runs the flagged
// lanes through the interpreter (iss/machine.cpp). `rs3` is read by the R4
// ops only.
template <Op kOp>
inline constexpr bool kFp16AluOp =
    kOp == Op::kFaddH || kOp == Op::kFsubH || kOp == Op::kFmulH || kOp == Op::kFmaddH ||
    kOp == Op::kFmsubH || kOp == Op::kVfmacH || kOp == Op::kVfdotpexSH ||
    kOp == Op::kVfcdotpH || kOp == Op::kVfccdotpH;

template <Op kOp, typename R>
[[gnu::always_inline]] inline u32 fp16_alu(u32 rs1, u32 rs2, u32 rs3, u32 rd_old, R r) {
  static_assert(kFp16AluOp<kOp>);
  if constexpr (kOp == Op::kFaddH) {
    return h_box(sf::add<F16>(rs1 & 0xFFFF, rs2 & 0xFFFF, r));
  } else if constexpr (kOp == Op::kFsubH) {
    return h_box(sf::sub<F16>(rs1 & 0xFFFF, rs2 & 0xFFFF, r));
  } else if constexpr (kOp == Op::kFmulH) {
    return h_box(sf::mul<F16>(rs1 & 0xFFFF, rs2 & 0xFFFF, r));
  } else if constexpr (kOp == Op::kFmaddH) {
    return h_box(sf::fma<F16>(rs1, rs2, rs3, r));
  } else if constexpr (kOp == Op::kFmsubH) {
    return h_box(sf::fma<F16>(rs1, rs2, sf::sgnjn<F16>(rs3, rs3), r));
  } else if constexpr (kOp == Op::kVfmacH) {
    return pack16(static_cast<u16>(sf::fma<F16>(lane16(rs1, 0), lane16(rs2, 0),
                                                lane16(rd_old, 0), r)),
                  static_cast<u16>(sf::fma<F16>(lane16(rs1, 1), lane16(rs2, 1),
                                                lane16(rd_old, 1), r)));
  } else if constexpr (kOp == Op::kVfdotpexSH) {
    // rd (binary32) += rs1.h0*rs2.h0 + rs1.h1*rs2.h1, single rounding to
    // binary32 by the host (no fp16 rounding: nothing to flag).
    const double sum = F16::to_double(lane16(rs1, 0)) * F16::to_double(lane16(rs2, 0)) +
                       F16::to_double(lane16(rs1, 1)) * F16::to_double(lane16(rs2, 1)) +
                       static_cast<double>(as_f32(rd_old));
    return f32_bits(static_cast<float>(sum));
  } else {
    return cdotp_h(rd_old, rs1, rs2, kOp == Op::kVfccdotpH, r);
  }
}

}  // namespace exec_detail

// Shared body of execute / execute_known. When `kStaticOp` is true the
// opcode is the compile-time constant `kOp` and the dispatch switch below
// constant-folds to the single matching case: the instantiation is a
// straight-line kernel for that op with every untaken StepInfo field known
// to be false, which in turn folds the caller's timing branches. This is
// what the ISS convergence-batch sweep dispatches to (see machine.cpp):
// one runtime switch per SbEntry per *batch*, then a tight per-op member
// loop. Semantics exist exactly once - every path and every State type
// (rv::HartState or the ISS's SoA lane view) executes this body.
template <typename Mem, bool kStaticOp, Op kOp, typename State>
[[gnu::always_inline]] inline StepInfo execute_impl(const Decoded& d, State& h,
                                                    Mem& mem) {
  using namespace exec_detail;  // fp helpers
  StepInfo info;
  const u32 pc = h.pc;
  u32 next_pc = pc + 4;
  const u32 rs1 = h.read_reg(d.rs1);
  const u32 rs2 = h.read_reg(d.rs2);
  const u32 rd_old = h.read_reg(d.rd);

  const auto fault = [&] {
    h.halted = true;
    h.trapped = true;
    info.halted = true;
  };
  const auto do_load = [&](u32 addr, u32 bytes) -> MemResult {
    info.is_load = true;
    info.mem_addr = addr;
    info.mem_bytes = static_cast<u8>(bytes);
    if ((addr & (bytes - 1)) != 0) return {0, true};
    return mem.load(addr, bytes);
  };
  const auto do_store = [&](u32 addr, u32 value, u32 bytes) -> bool {
    info.is_store = true;
    info.mem_addr = addr;
    info.mem_bytes = static_cast<u8>(bytes);
    if ((addr & (bytes - 1)) != 0) return true;
    return mem.store(addr, value, bytes);
  };
  const auto do_amo = [&](AmoOp op, u32 addr, u32 value) -> MemResult {
    info.is_amo = true;
    info.mem_addr = addr;
    info.mem_bytes = 4;
    if ((addr & 3) != 0) return {0, true};
    return mem.amo(op, addr, value);
  };
  const auto branch = [&](bool take) {
    if (take) {
      next_pc = pc + static_cast<u32>(d.imm);
      info.branch_taken = true;
    }
  };
  const auto csr_read = [&](u32 csr) -> u32 {
    switch (csr) {
      case kCsrMhartid: return h.hartid;
      case kCsrMcycle: return static_cast<u32>(h.cycle);
      case kCsrMcycleH: return static_cast<u32>(h.cycle >> 32);
      case kCsrMinstret: return static_cast<u32>(h.instret);
      case kCsrMinstretH: return static_cast<u32>(h.instret >> 32);
      default: return 0;  // unimplemented CSRs read as zero
    }
  };

  Op op;
  if constexpr (kStaticOp) {
    op = kOp;
  } else {
    op = d.op;
  }
  switch (op) {
    // ----- RV32I -----
    case Op::kLui: h.write_reg(d.rd, static_cast<u32>(d.imm)); break;
    case Op::kAuipc: h.write_reg(d.rd, pc + static_cast<u32>(d.imm)); break;
    case Op::kJal:
      h.write_reg(d.rd, pc + 4);
      next_pc = pc + static_cast<u32>(d.imm);
      info.branch_taken = true;
      break;
    case Op::kJalr:
      h.write_reg(d.rd, pc + 4);
      next_pc = (rs1 + static_cast<u32>(d.imm)) & ~1u;
      info.branch_taken = true;
      break;
    case Op::kBeq: branch(rs1 == rs2); break;
    case Op::kBne: branch(rs1 != rs2); break;
    case Op::kBlt: branch(static_cast<i32>(rs1) < static_cast<i32>(rs2)); break;
    case Op::kBge: branch(static_cast<i32>(rs1) >= static_cast<i32>(rs2)); break;
    case Op::kBltu: branch(rs1 < rs2); break;
    case Op::kBgeu: branch(rs1 >= rs2); break;

    case Op::kLb: {
      const auto r = do_load(rs1 + static_cast<u32>(d.imm), 1);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, static_cast<u32>(sign_extend(r.value, 8)));
      break;
    }
    case Op::kLh: {
      const auto r = do_load(rs1 + static_cast<u32>(d.imm), 2);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, static_cast<u32>(sign_extend(r.value, 16)));
      break;
    }
    case Op::kLw: {
      const auto r = do_load(rs1 + static_cast<u32>(d.imm), 4);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, r.value);
      break;
    }
    case Op::kLbu: {
      const auto r = do_load(rs1 + static_cast<u32>(d.imm), 1);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, r.value);
      break;
    }
    case Op::kLhu: {
      const auto r = do_load(rs1 + static_cast<u32>(d.imm), 2);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, r.value);
      break;
    }
    case Op::kSb:
      if (do_store(rs1 + static_cast<u32>(d.imm), rs2 & 0xFF, 1)) fault();
      break;
    case Op::kSh:
      if (do_store(rs1 + static_cast<u32>(d.imm), rs2 & 0xFFFF, 2)) fault();
      break;
    case Op::kSw:
      if (do_store(rs1 + static_cast<u32>(d.imm), rs2, 4)) fault();
      break;

    case Op::kAddi: h.write_reg(d.rd, rs1 + static_cast<u32>(d.imm)); break;
    case Op::kSlti: h.write_reg(d.rd, static_cast<i32>(rs1) < d.imm ? 1 : 0); break;
    case Op::kSltiu: h.write_reg(d.rd, rs1 < static_cast<u32>(d.imm) ? 1 : 0); break;
    case Op::kXori: h.write_reg(d.rd, rs1 ^ static_cast<u32>(d.imm)); break;
    case Op::kOri: h.write_reg(d.rd, rs1 | static_cast<u32>(d.imm)); break;
    case Op::kAndi: h.write_reg(d.rd, rs1 & static_cast<u32>(d.imm)); break;
    case Op::kSlli: h.write_reg(d.rd, rs1 << (d.imm & 31)); break;
    case Op::kSrli: h.write_reg(d.rd, rs1 >> (d.imm & 31)); break;
    case Op::kSrai: h.write_reg(d.rd, static_cast<u32>(static_cast<i32>(rs1) >> (d.imm & 31))); break;
    case Op::kAdd: h.write_reg(d.rd, rs1 + rs2); break;
    case Op::kSub: h.write_reg(d.rd, rs1 - rs2); break;
    case Op::kSll: h.write_reg(d.rd, rs1 << (rs2 & 31)); break;
    case Op::kSlt: h.write_reg(d.rd, static_cast<i32>(rs1) < static_cast<i32>(rs2) ? 1 : 0); break;
    case Op::kSltu: h.write_reg(d.rd, rs1 < rs2 ? 1 : 0); break;
    case Op::kXor: h.write_reg(d.rd, rs1 ^ rs2); break;
    case Op::kSrl: h.write_reg(d.rd, rs1 >> (rs2 & 31)); break;
    case Op::kSra: h.write_reg(d.rd, static_cast<u32>(static_cast<i32>(rs1) >> (rs2 & 31))); break;
    case Op::kOr: h.write_reg(d.rd, rs1 | rs2); break;
    case Op::kAnd: h.write_reg(d.rd, rs1 & rs2); break;

    case Op::kFence: break;  // single cluster-visible memory: no-op
    case Op::kEcall: break;  // no supervisor: treated as no-op
    case Op::kEbreak:
      h.halted = true;
      info.halted = true;
      break;
    case Op::kWfi:
      h.in_wfi = true;
      info.entered_wfi = true;
      break;

    // ----- Zicsr -----
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      // All implemented CSRs are read-only counters; writes are ignored.
      h.write_reg(d.rd, csr_read(static_cast<u32>(d.imm)));
      break;
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      h.write_reg(d.rd, csr_read(static_cast<u32>(d.imm)));
      break;

    // ----- M -----
    case Op::kMul: h.write_reg(d.rd, rs1 * rs2); break;
    case Op::kMulh:
      h.write_reg(d.rd, static_cast<u32>((static_cast<i64>(static_cast<i32>(rs1)) *
                                          static_cast<i64>(static_cast<i32>(rs2))) >> 32));
      break;
    case Op::kMulhsu:
      h.write_reg(d.rd, static_cast<u32>((static_cast<i64>(static_cast<i32>(rs1)) *
                                          static_cast<i64>(rs2)) >> 32));
      break;
    case Op::kMulhu:
      h.write_reg(d.rd, static_cast<u32>((static_cast<u64>(rs1) * rs2) >> 32));
      break;
    case Op::kDiv: {
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      if (b == 0) h.write_reg(d.rd, 0xFFFFFFFFu);
      else if (a == INT32_MIN && b == -1) h.write_reg(d.rd, static_cast<u32>(INT32_MIN));
      else h.write_reg(d.rd, static_cast<u32>(a / b));
      break;
    }
    case Op::kDivu: h.write_reg(d.rd, rs2 == 0 ? 0xFFFFFFFFu : rs1 / rs2); break;
    case Op::kRem: {
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      if (b == 0) h.write_reg(d.rd, rs1);
      else if (a == INT32_MIN && b == -1) h.write_reg(d.rd, 0);
      else h.write_reg(d.rd, static_cast<u32>(a % b));
      break;
    }
    case Op::kRemu: h.write_reg(d.rd, rs2 == 0 ? rs1 : rs1 % rs2); break;

    // ----- A -----
    case Op::kLrW: {
      const auto r = do_load(rs1, 4);
      if (r.fault) { fault(); break; }
      h.has_reservation = true;
      h.reservation_addr = rs1;
      h.write_reg(d.rd, r.value);
      break;
    }
    case Op::kScW: {
      if (h.has_reservation && h.reservation_addr == rs1) {
        if (do_store(rs1, rs2, 4)) { fault(); break; }
        h.write_reg(d.rd, 0);
      } else {
        h.write_reg(d.rd, 1);
      }
      h.has_reservation = false;
      break;
    }
    case Op::kAmoswapW:
    case Op::kAmoaddW:
    case Op::kAmoxorW:
    case Op::kAmoandW:
    case Op::kAmoorW:
    case Op::kAmominW:
    case Op::kAmomaxW:
    case Op::kAmominuW:
    case Op::kAmomaxuW: {
      static constexpr AmoOp kMap[] = {AmoOp::kSwap, AmoOp::kAdd, AmoOp::kXor,
                                       AmoOp::kAnd, AmoOp::kOr, AmoOp::kMin,
                                       AmoOp::kMax, AmoOp::kMinu, AmoOp::kMaxu};
      const auto idx = static_cast<size_t>(op) - static_cast<size_t>(Op::kAmoswapW);
      const auto r = do_amo(kMap[idx], rs1, rs2);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rd, r.value);
      break;
    }

    // ----- Zfinx (binary32) -----
    case Op::kFaddS: h.write_reg(d.rd, f32_bits(as_f32(rs1) + as_f32(rs2))); break;
    case Op::kFsubS: h.write_reg(d.rd, f32_bits(as_f32(rs1) - as_f32(rs2))); break;
    case Op::kFmulS: h.write_reg(d.rd, f32_bits(as_f32(rs1) * as_f32(rs2))); break;
    case Op::kFdivS: h.write_reg(d.rd, f32_bits(as_f32(rs1) / as_f32(rs2))); break;
    case Op::kFsqrtS: h.write_reg(d.rd, f32_bits(std::sqrt(as_f32(rs1)))); break;
    case Op::kFsgnjS: h.write_reg(d.rd, (rs1 & 0x7FFFFFFFu) | (rs2 & 0x80000000u)); break;
    case Op::kFsgnjnS: h.write_reg(d.rd, (rs1 & 0x7FFFFFFFu) | (~rs2 & 0x80000000u)); break;
    case Op::kFsgnjxS: h.write_reg(d.rd, rs1 ^ (rs2 & 0x80000000u)); break;
    case Op::kFminS: h.write_reg(d.rd, f32_min(rs1, rs2)); break;
    case Op::kFmaxS: h.write_reg(d.rd, f32_max(rs1, rs2)); break;
    case Op::kFeqS: h.write_reg(d.rd, as_f32(rs1) == as_f32(rs2) ? 1 : 0); break;
    case Op::kFltS: h.write_reg(d.rd, as_f32(rs1) < as_f32(rs2) ? 1 : 0); break;
    case Op::kFleS: h.write_reg(d.rd, as_f32(rs1) <= as_f32(rs2) ? 1 : 0); break;
    case Op::kFclassS: h.write_reg(d.rd, sf::classify_f32(rs1)); break;
    case Op::kFcvtWS: h.write_reg(d.rd, static_cast<u32>(f32_to_i32(as_f32(rs1)))); break;
    case Op::kFcvtWuS: h.write_reg(d.rd, f32_to_u32(as_f32(rs1))); break;
    case Op::kFcvtSW: h.write_reg(d.rd, f32_bits(static_cast<float>(static_cast<i32>(rs1)))); break;
    case Op::kFcvtSWu: h.write_reg(d.rd, f32_bits(static_cast<float>(rs1))); break;
    case Op::kFmaddS: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, f32_bits(std::fma(as_f32(rs1), as_f32(rs2), as_f32(rs3))));
      break;
    }
    case Op::kFmsubS: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, f32_bits(std::fma(as_f32(rs1), as_f32(rs2), -as_f32(rs3))));
      break;
    }
    case Op::kFnmsubS: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, f32_bits(std::fma(-as_f32(rs1), as_f32(rs2), as_f32(rs3))));
      break;
    }
    case Op::kFnmaddS: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, f32_bits(std::fma(-as_f32(rs1), as_f32(rs2), -as_f32(rs3))));
      break;
    }

    // ----- Zhinx (binary16, low half of x-regs) -----
    case Op::kFaddH:
      h.write_reg(d.rd, fp16_alu<Op::kFaddH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kFsubH:
      h.write_reg(d.rd, fp16_alu<Op::kFsubH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kFmulH:
      h.write_reg(d.rd, fp16_alu<Op::kFmulH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kFdivH: h.write_reg(d.rd, h_box(sf::div<F16>(rs1 & 0xFFFF, rs2 & 0xFFFF))); break;
    case Op::kFsqrtH: h.write_reg(d.rd, h_box(sf::sqrt<F16>(rs1 & 0xFFFF))); break;
    case Op::kFsgnjH: h.write_reg(d.rd, h_box(sf::sgnj<F16>(rs1, rs2))); break;
    case Op::kFsgnjnH: h.write_reg(d.rd, h_box(sf::sgnjn<F16>(rs1, rs2))); break;
    case Op::kFsgnjxH: h.write_reg(d.rd, h_box(sf::sgnjx<F16>(rs1, rs2))); break;
    case Op::kFminH: h.write_reg(d.rd, h_box(sf::min<F16>(rs1, rs2))); break;
    case Op::kFmaxH: h.write_reg(d.rd, h_box(sf::max<F16>(rs1, rs2))); break;
    case Op::kFeqH: h.write_reg(d.rd, sf::eq<F16>(rs1, rs2) ? 1 : 0); break;
    case Op::kFltH: h.write_reg(d.rd, sf::lt<F16>(rs1, rs2) ? 1 : 0); break;
    case Op::kFleH: h.write_reg(d.rd, sf::le<F16>(rs1, rs2) ? 1 : 0); break;
    case Op::kFclassH: h.write_reg(d.rd, F16::classify(rs1)); break;
    case Op::kFcvtWH: h.write_reg(d.rd, static_cast<u32>(sf::to_i32<F16>(rs1))); break;
    case Op::kFcvtWuH: h.write_reg(d.rd, sf::to_u32<F16>(rs1)); break;
    case Op::kFcvtHW: h.write_reg(d.rd, h_box(sf::from_i32<F16>(static_cast<i32>(rs1)))); break;
    case Op::kFcvtHWu: h.write_reg(d.rd, h_box(sf::from_u32<F16>(rs1))); break;
    case Op::kFcvtSH:
      h.write_reg(d.rd, f32_bits(static_cast<float>(F16::to_double(rs1 & 0xFFFF))));
      break;
    case Op::kFcvtHS:
      h.write_reg(d.rd, h_box(F16::from_double(static_cast<double>(as_f32(rs1)))));
      break;
    case Op::kFmaddH:
      h.write_reg(d.rd,
                  fp16_alu<Op::kFmaddH>(rs1, rs2, h.read_reg(d.rs3), rd_old, sf::Exact{}));
      break;
    case Op::kFmsubH:
      h.write_reg(d.rd,
                  fp16_alu<Op::kFmsubH>(rs1, rs2, h.read_reg(d.rs3), rd_old, sf::Exact{}));
      break;
    case Op::kFnmsubH: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, h_box(sf::fma<F16>(sf::sgnjn<F16>(rs1, rs1), rs2, rs3)));
      break;
    }
    case Op::kFnmaddH: {
      const u32 rs3 = h.read_reg(d.rs3);
      h.write_reg(d.rd, h_box(sf::fma<F16>(sf::sgnjn<F16>(rs1, rs1), rs2,
                                           sf::sgnjn<F16>(rs3, rs3))));
      break;
    }

    // ----- Xpulpimg: post-increment loads/stores -----
    case Op::kPLb:
    case Op::kPLbu:
    case Op::kPLh:
    case Op::kPLhu:
    case Op::kPLw: {
      const u32 bytes = (op == Op::kPLw) ? 4u : (op == Op::kPLh || op == Op::kPLhu) ? 2u : 1u;
      const auto r = do_load(rs1, bytes);
      if (r.fault) { fault(); break; }
      h.write_reg(d.rs1, rs1 + static_cast<u32>(d.imm));  // post-increment
      u32 v = r.value;
      if (op == Op::kPLb) v = static_cast<u32>(sign_extend(v, 8));
      if (op == Op::kPLh) v = static_cast<u32>(sign_extend(v, 16));
      h.write_reg(d.rd, v);  // load result wins if rd == rs1
      break;
    }
    case Op::kPSb:
    case Op::kPSh:
    case Op::kPSw: {
      const u32 bytes = (op == Op::kPSw) ? 4u : (op == Op::kPSh) ? 2u : 1u;
      if (do_store(rs1, rs2, bytes)) { fault(); break; }
      h.write_reg(d.rs1, rs1 + static_cast<u32>(d.imm));
      break;
    }

    // ----- Xpulpimg: integer DSP -----
    case Op::kPMac: h.write_reg(d.rd, rd_old + rs1 * rs2); break;
    case Op::kPMsu: h.write_reg(d.rd, rd_old - rs1 * rs2); break;
    case Op::kPvAddH:
      h.write_reg(d.rd, pack16(static_cast<u16>(lane16(rs1, 0) + lane16(rs2, 0)),
                               static_cast<u16>(lane16(rs1, 1) + lane16(rs2, 1))));
      break;
    case Op::kPvSubH:
      h.write_reg(d.rd, pack16(static_cast<u16>(lane16(rs1, 0) - lane16(rs2, 0)),
                               static_cast<u16>(lane16(rs1, 1) - lane16(rs2, 1))));
      break;
    case Op::kPvAddB: {
      u32 out = 0;
      for (unsigned i = 0; i < 4; ++i)
        out = sf::insert8(out, i, static_cast<u8>(lane8(rs1, i) + lane8(rs2, i)));
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvSubB: {
      u32 out = 0;
      for (unsigned i = 0; i < 4; ++i)
        out = sf::insert8(out, i, static_cast<u8>(lane8(rs1, i) - lane8(rs2, i)));
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvXorH:
    case Op::kPvXorB: h.write_reg(d.rd, rs1 ^ rs2); break;
    case Op::kPvAndH:
    case Op::kPvAndB: h.write_reg(d.rd, rs1 & rs2); break;
    case Op::kPvOrH:
    case Op::kPvOrB: h.write_reg(d.rd, rs1 | rs2); break;
    case Op::kPvShuffleH: {
      // Output lane i selects halfword (rs2.lane[i] & 1) of rs1.
      u32 out = 0;
      for (unsigned i = 0; i < 2; ++i)
        out = sf::insert16(out, i, lane16(rs1, lane16(rs2, i) & 1));
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvShuffleB: {
      u32 out = 0;
      for (unsigned i = 0; i < 4; ++i)
        out = sf::insert8(out, i, lane8(rs1, lane8(rs2, i) & 3));
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvShuffle2H: {
      // Output lane i selects halfword (rs2.lane[i] & 3) from {rs1, rd}:
      // indices 0-1 address rs1 lanes, 2-3 address the old rd lanes.
      u32 out = 0;
      for (unsigned i = 0; i < 2; ++i) {
        const u32 sel = lane16(rs2, i) & 3;
        const u16 v = (sel < 2) ? lane16(rs1, sel) : lane16(rd_old, sel - 2);
        out = sf::insert16(out, i, v);
      }
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvShuffle2B: {
      u32 out = 0;
      for (unsigned i = 0; i < 4; ++i) {
        const u32 sel = lane8(rs2, i) & 7;
        const u8 v = (sel < 4) ? lane8(rs1, sel) : lane8(rd_old, sel - 4);
        out = sf::insert8(out, i, v);
      }
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kPvPackH: h.write_reg(d.rd, pack16(lane16(rs1, 0), lane16(rs2, 0))); break;
    case Op::kPvExtractH:
      h.write_reg(d.rd, static_cast<u32>(sign_extend(lane16(rs1, d.imm & 1), 16)));
      break;
    case Op::kPvInsertH:
      h.write_reg(d.rd, sf::insert16(rd_old, d.imm & 1, static_cast<u16>(rs1)));
      break;

    // ----- SmallFloat / MiniFloat packed FP -----
    case Op::kVfaddH:
      h.write_reg(d.rd, pack16(static_cast<u16>(sf::add<F16>(lane16(rs1, 0), lane16(rs2, 0))),
                               static_cast<u16>(sf::add<F16>(lane16(rs1, 1), lane16(rs2, 1)))));
      break;
    case Op::kVfsubH:
      h.write_reg(d.rd, pack16(static_cast<u16>(sf::sub<F16>(lane16(rs1, 0), lane16(rs2, 0))),
                               static_cast<u16>(sf::sub<F16>(lane16(rs1, 1), lane16(rs2, 1)))));
      break;
    case Op::kVfmulH:
      h.write_reg(d.rd, pack16(static_cast<u16>(sf::mul<F16>(lane16(rs1, 0), lane16(rs2, 0))),
                               static_cast<u16>(sf::mul<F16>(lane16(rs1, 1), lane16(rs2, 1)))));
      break;
    case Op::kVfmacH:
      h.write_reg(d.rd, fp16_alu<Op::kVfmacH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kVfaddB:
    case Op::kVfsubB:
    case Op::kVfmulB:
    case Op::kVfmacB: {
      u32 out = 0;
      for (unsigned i = 0; i < 4; ++i) {
        const u32 a = lane8(rs1, i), b = lane8(rs2, i);
        u32 v = 0;
        switch (op) {
          case Op::kVfaddB: v = sf::add<Fp8>(a, b); break;
          case Op::kVfsubB: v = sf::sub<Fp8>(a, b); break;
          case Op::kVfmulB: v = sf::mul<Fp8>(a, b); break;
          default: v = sf::fma<Fp8>(a, b, lane8(rd_old, i)); break;
        }
        out = sf::insert8(out, i, static_cast<u8>(v));
      }
      h.write_reg(d.rd, out);
      break;
    }
    case Op::kVfdotpexSH:
      h.write_reg(d.rd, fp16_alu<Op::kVfdotpexSH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kVfdotpexHB: {
      // rd (binary16, low half) += sum of 4 fp8 lane products, single rounding.
      double sum = F16::to_double(lane16(rd_old, 0));
      for (unsigned i = 0; i < 4; ++i)
        sum += Fp8::to_double(lane8(rs1, i)) * Fp8::to_double(lane8(rs2, i));
      h.write_reg(d.rd, h_box(F16::from_double(sum)));
      break;
    }
    case Op::kVfcdotpH:
      h.write_reg(d.rd, fp16_alu<Op::kVfcdotpH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kVfccdotpH:
      h.write_reg(d.rd, fp16_alu<Op::kVfccdotpH>(rs1, rs2, 0, rd_old, sf::Exact{}));
      break;
    case Op::kVfcvtHB:
      h.write_reg(d.rd, pack16(static_cast<u16>(sf::convert<F16, Fp8>(lane8(rs1, 0))),
                               static_cast<u16>(sf::convert<F16, Fp8>(lane8(rs1, 1)))));
      break;
    case Op::kVfcvtBH:
      h.write_reg(d.rd, pack8(static_cast<u8>(sf::convert<Fp8, F16>(lane16(rs1, 0))),
                              static_cast<u8>(sf::convert<Fp8, F16>(lane16(rs1, 1))), 0, 0));
      break;

    case Op::kInvalid:
    default:
      fault();
      break;
  }

  h.pc = next_pc;
  ++h.instret;
  return info;
}

template <typename Mem, typename State>
[[gnu::always_inline]] inline StepInfo execute(const Decoded& d, State& h, Mem& mem) {
  return execute_impl<Mem, /*kStaticOp=*/false, Op::kInvalid, State>(d, h, mem);
}

template <Op kOp, typename Mem, typename State>
[[gnu::always_inline]] inline StepInfo execute_known(const Decoded& d, State& h,
                                                     Mem& mem) {
  static_assert(kOp != Op::kInvalid, "specialize real ops only");
  return execute_impl<Mem, /*kStaticOp=*/true, kOp, State>(d, h, mem);
}

}  // namespace tsim::rv
