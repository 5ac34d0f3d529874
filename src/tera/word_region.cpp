#include "tera/word_region.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace tsim::tera {

WordRegion::WordRegion(size_t words) : size_(words) {
  if (words == 0) return;
  void* p = ::mmap(nullptr, words * sizeof(u32), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  words_ = static_cast<u32*>(p);
}

WordRegion::~WordRegion() {
  if (words_ != nullptr) ::munmap(words_, size_ * sizeof(u32));
}

void WordRegion::zero() {
  if (words_ == nullptr) return;
  // Dropped private anonymous pages read back zero-filled. madvise cannot
  // fail on our own whole mapping, but a memset keeps the contract if it does.
  if (::madvise(words_, size_ * sizeof(u32), MADV_DONTNEED) != 0)
    std::memset(words_, 0, size_ * sizeof(u32));
}

// Guest memories are serialized with a zero-run-length encoding: an idle L2
// is almost entirely zero words, and snapshot cost is bound by bytes pushed
// through write+fsync, so storing zero runs as counts instead of payload is
// what keeps periodic checkpointing within the soak-overhead budget.
//
// Format: u64 total word count, then records of
//   u64 zero_run, u64 literal_run, literal_run raw u32 words
// until the total is covered. A literal run may contain short interior zero
// gaps (fewer than kMinZeroRun words) so sparse-but-live regions don't
// explode into per-word records. The coder is an algorithm, not a field
// list, so it keeps separate save and load overloads of code_words.
namespace {

constexpr size_t kPageWords = 4096 / sizeof(u32);

// Branch-free OR over one page, so gcc turns it into a vector reduction.
bool page_is_zero(const u32* p) {
  u32 acc = 0;
  for (size_t j = 0; j < kPageWords; ++j) acc |= p[j];
  return acc == 0;
}

// First index >= i whose word is non-zero, or n. Whole all-zero pages
// (aligned to the region start) are skipped a page at a time.
size_t skip_zeros(const u32* v, size_t i, size_t n) {
  for (; i < n && i % kPageWords != 0; ++i)
    if (v[i] != 0) return i;
  while (n - i >= kPageWords && page_is_zero(v + i)) i += kPageWords;
  while (i < n && v[i] == 0) ++i;
  return i;
}

// Reads the run records into `out` after `zero` has cleared it; the size
// is checked first so a mismatched snapshot leaves `out` untouched.
template <class Zero>
void decode_words(sim::SnapshotReader& r, std::span<u32> out, Zero&& zero) {
  const u64 n = r.read_u64();
  if (n != out.size())
    r.fail("memory snapshot sizes do not match this configuration");
  zero();
  u64 pos = 0;
  while (pos < n) {
    const u64 zero_run = r.read_u64();
    const u64 literal_run = r.read_u64();
    if (zero_run > n - pos) r.fail("memory snapshot zero run overflows region");
    pos += zero_run;
    if (literal_run > n - pos)
      r.fail("memory snapshot literal run overflows region");
    if (zero_run == 0 && literal_run == 0)
      r.fail("memory snapshot contains an empty run record");
    r.read_bytes(out.data() + pos, literal_run * sizeof(u32));
    pos += literal_run;
  }
}

}  // namespace

void code_words(sim::SnapshotWriter& w, std::span<const u32> v) {
  const size_t n = v.size();
  w.write_u64(n);
  size_t i = 0;
  while (i < n) {
    const size_t z = skip_zeros(v.data(), i, n);
    // Extend the literal until a zero run long enough to be worth a record.
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
}

void code_words(sim::SnapshotReader& r, WordRegion& out) {
  decode_words(r, out, [&out] { out.zero(); });
}

void code_words(sim::SnapshotReader& r, std::vector<u32>& out) {
  decode_words(r, out, [&out] { std::fill(out.begin(), out.end(), 0u); });
}

}  // namespace tsim::tera
