#include "refdet.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "phy/qam.h"

namespace e2e {

std::vector<cplx> reference_mmse(const tsim::sim::MimoProblem& p) {
  const u32 nrx = p.h.rows();
  const u32 n = p.h.cols();
  tsim::check(p.y.size() == nrx, "reference_mmse: y does not match H");
  // Augmented system [G | z] with G = H^H H + sigma^2 I and z = H^H y.
  std::vector<cplx> a(static_cast<size_t>(n) * (n + 1));
  const auto at = [&](u32 r, u32 c) -> cplx& { return a[r * (n + 1) + c]; };
  for (u32 r = 0; r < n; ++r) {
    for (u32 c = 0; c < n; ++c) {
      cplx s = r == c ? cplx(p.sigma2, 0.0) : cplx(0.0, 0.0);
      for (u32 k = 0; k < nrx; ++k) s += std::conj(p.h.at(k, r)) * p.h.at(k, c);
      at(r, c) = s;
    }
    cplx z(0.0, 0.0);
    for (u32 k = 0; k < nrx; ++k) z += std::conj(p.h.at(k, r)) * p.y[k];
    at(r, n) = z;
  }
  for (u32 col = 0; col < n; ++col) {
    u32 piv = col;
    for (u32 r = col + 1; r < n; ++r)
      if (std::abs(at(r, col)) > std::abs(at(piv, col))) piv = r;
    tsim::check(std::abs(at(piv, col)) > 0.0, "reference_mmse: singular system");
    if (piv != col)
      for (u32 c = col; c <= n; ++c) std::swap(at(piv, c), at(col, c));
    for (u32 r = col + 1; r < n; ++r) {
      const cplx f = at(r, col) / at(col, col);
      for (u32 c = col; c <= n; ++c) at(r, c) -= f * at(col, c);
    }
  }
  std::vector<cplx> x(n);
  for (u32 i = n; i-- > 0;) {
    cplx s = at(i, n);
    for (u32 c = i + 1; c < n; ++c) s -= at(i, c) * x[c];
    x[i] = s / at(i, i);
  }
  return x;
}

u64 reference_errors(const tsim::sim::Batch& batch, u32 ntx, u32 qam_order,
                     u32 first, u32 count) {
  const tsim::phy::QamModulator qam(qam_order);
  const u32 bits_per_problem = ntx * qam.bits_per_symbol();
  u64 errors = 0;
  for (u32 p = first; p < first + count; ++p) {
    const std::vector<cplx> x = reference_mmse(batch.problems[p]);
    const std::vector<u8> bits = qam.demap_sequence(x);
    const size_t base = static_cast<size_t>(p) * bits_per_problem;
    for (u32 b = 0; b < bits_per_problem; ++b)
      errors += bits[b] != batch.tx_bits[base + b] ? 1 : 0;
  }
  return errors;
}

u64 reference_slot_errors(const tsim::ran::SlotWorkload& slot,
                          const std::vector<tsim::ran::UeGroup>& groups) {
  u64 errors = 0;
  for (const tsim::ran::Allocation& a : slot.allocations) {
    const tsim::ran::UeGroup& g = groups.at(a.group);
    errors += reference_errors(a.batch, g.ntx, g.qam_order, 0, a.num_problems());
  }
  return errors;
}

double ber_tolerance(tsim::kern::Precision p) {
  switch (p) {
    case tsim::kern::Precision::k8Quarter:
    case tsim::kern::Precision::k8WDotp:
      return 0.02;
    default:
      return 0.005;
  }
}

}  // namespace e2e
