// The benchmark's own reference detector: double-precision complex MMSE,
// x = (H^H H + sigma^2 I)^-1 H^H y, solved by Gaussian elimination with
// partial pivoting. It shares no linear algebra with the simulator (whose
// golden model factors the Gram matrix by Cholesky); only the QAM bit mapping
// is reused, since that mapping is what defines the transmitted bits.
#pragma once

#include <complex>
#include <vector>

#include "common.h"
#include "ran/traffic.h"
#include "sim/cosim.h"

namespace e2e {

using cplx = std::complex<double>;

/// MMSE estimate of the transmitted vector of one subcarrier problem.
std::vector<cplx> reference_mmse(const tsim::sim::MimoProblem& p);

/// Hard-decision bit errors of the reference detector over problems
/// [first, first + count) of `batch` (bits laid out as sim::Batch::tx_bits).
u64 reference_errors(const tsim::sim::Batch& batch, u32 ntx, u32 qam_order,
                     u32 first, u32 count);

/// Reference bit errors over every allocation of a slot.
u64 reference_slot_errors(const tsim::ran::SlotWorkload& slot,
                          const std::vector<tsim::ran::UeGroup>& groups);

/// Largest |BER_dut - BER_ref| the output check accepts at a precision. The
/// DUT solves in fp16 (8-bit variants also quantize H and y to fp8), so its
/// hard decisions may flip a few bits near decision boundaries.
double ber_tolerance(tsim::kern::Precision p);

}  // namespace e2e
