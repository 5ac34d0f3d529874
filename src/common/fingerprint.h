// Word-wise identity hash of a configuration or program image: the one mixer
// behind iss::program_fingerprint, ran::SlotScheduler::warm_key and
// mac::Cell::config_fingerprint. Snapshot files store these hashes, so the
// constants and the word encoding below are part of the snapshot format.
#pragma once

#include <bit>
#include <type_traits>

#include "common/types.h"

namespace tsim {

/// FNV-style xor-multiply over 64-bit words: h = (h ^ word) * 1099511628211
/// (the 64-bit FNV prime) per word. The offset 1469598103934665603 is one
/// digit short of FNV-1a's 64-bit basis (14695981039346656037); it stays
/// because stored snapshots carry hashes computed with it. Integers, bools
/// and enums mix as their value widened to u64, doubles as their bits.
class Fingerprint {
 public:
  template <class... Ts>
  Fingerprint& mix(const Ts&... vs) {
    ((h_ = (h_ ^ word(vs)) * 1099511628211ull), ...);
    return *this;
  }
  u64 value() const { return h_; }

 private:
  template <class T>
  static u64 word(const T& v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::bit_cast<u64>(static_cast<double>(v));
    else
      return static_cast<u64>(v);
  }

  u64 h_ = 1469598103934665603ull;
};

}  // namespace tsim
