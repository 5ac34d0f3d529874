// Lazily zeroed guest word storage and its snapshot coder.
//
// A WordRegion is a private anonymous mapping: the kernel hands out a
// zero-filled page on the first touch of each 4 KiB, so constructing a
// region costs nothing in proportion to its size, and zero() just drops
// the pages again (MADV_DONTNEED). Construct, reset and restore therefore
// cost in proportion to the pages the guest actually used - an idle 32 MiB
// L2 stays unbacked. Element access is a plain pointer index, identical to
// the std::vector it replaces on the load/store hot path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "sim/snapshot.h"

namespace tsim::tera {

class WordRegion {
 public:
  /// Maps `words` zero words; throws std::bad_alloc if the mapping fails.
  explicit WordRegion(size_t words);
  ~WordRegion();
  WordRegion(const WordRegion&) = delete;
  WordRegion& operator=(const WordRegion&) = delete;

  u32& operator[](size_t i) { return words_[i]; }
  const u32& operator[](size_t i) const { return words_[i]; }
  u32* data() { return words_; }
  const u32* data() const { return words_; }
  size_t size() const { return size_; }
  u32* begin() { return words_; }
  u32* end() { return words_ + size_; }
  const u32* begin() const { return words_; }
  const u32* end() const { return words_ + size_; }

  /// Every word reads back as zero afterwards; the backing pages are
  /// released. Call between runs only - no hart may be accessing it.
  void zero();

 private:
  u32* words_ = nullptr;
  size_t size_ = 0;
};

// ---- zero-run snapshot coder (format in word_region.cpp) ----

/// A literal run absorbs interior zero gaps shorter than this.
inline constexpr size_t kMinZeroRun = 32;

void code_words(sim::SnapshotWriter& w, std::span<const u32> v);
/// Both loads check the recorded size against the destination first and
/// leave it untouched on a mismatch; otherwise they zero it and write the
/// literal runs in place.
void code_words(sim::SnapshotReader& r, WordRegion& out);
void code_words(sim::SnapshotReader& r, std::vector<u32>& out);

}  // namespace tsim::tera
