// Versioned, CRC-guarded binary snapshot format (ROADMAP "checkpointing").
//
// A snapshot - a file on disk, or a farm shard frame on a worker pipe - is a
// 24-byte header followed by an opaque payload:
//
//   offset  size  field
//        0     4  magic            'TSNP' (0x504E5354)
//        4     4  format version   kSnapshotVersion
//        8     4  kind             caller-chosen payload discriminator
//       12     4  payload CRC-32   ISO-HDLC polynomial, over the payload
//       16     8  payload size     bytes following the header
//
// The payload is produced by a SnapshotWriter and consumed by a
// SnapshotReader: little-endian-on-x86 native integers plus length-prefixed
// strings/vectors, with section tags interleaved so a reader that drifts
// out of sync fails on the next tag instead of silently misparsing. Every
// decode error - truncation, a bad tag, a length that overruns the buffer,
// a failed CRC - is reported as SnapshotError carrying the file and byte
// offset, never UB or a silent wrong restore.
//
// Two-way codec. Writer and reader share one set of primitives, so each
// stateful type lists its snapshot fields exactly once, in
//
//   template <class Self, class Ar> static void io_state(Self& s, Ar& a);
//
// called with (const T, SnapshotWriter) to save and (T, SnapshotReader) to
// restore - the same const-on-save idiom as mac::for_each_field. Adding a
// field is one line in that list. The primitives:
//
//   a.io(x, y, ...)        integers, bools, enums, std::atomic, strings,
//                          vectors of integers (u64 length + elements), and
//                          nested types (their save_state/restore_state, or
//                          their own static io_state)
//   a.io_tag(t, what)      section tag, checked on load
//   a.io_match(v, what)    a value fixed by the configuration: written on
//                          save, compared with v on load
//   a.expect(cond, what)   load-side range/shape check; no-op on save
//   a.io_each(vec, f)      u64 count, then f(element) per element; on load
//                          the count is checked against the bytes left
//                          before the vector is rebuilt
//   a.io_bytes(p, n)       n raw bytes (hart columns)
//   a.io_pod(x)            x's bytes (padding-free aggregates such as
//                          HarqStats)
//
// State a load must rebuild rather than read (the machine's translation
// caches) is rebuilt in one load-only step after the shared list. Codecs
// that are algorithms rather than field lists - the guest-memory zero-run
// coder, this container, the farm's shard frame - use the typed
// write_*/read_* calls directly.
//
// Write discipline is atomic: the payload goes to `<path>.tmp`, is fsynced,
// and then renamed over `<path>`. A crash (or SIGKILL) mid-write leaves
// either the complete previous snapshot or a stale .tmp that no reader
// looks at - a visible `<path>` is always a complete, CRC-consistent file.
//
// The stateful layers each expose save_state(SnapshotWriter&) /
// restore_state(SnapshotReader&), one-line calls into their io_state:
// tera::ClusterMemory, iss::Machine, ran::SlotScheduler, mac::HarqEntity,
// mac::Cell, and the farm's per-cell snapshot files (mac/farm.h). The
// repo-wide contract those entry points implement: capture at a TTI
// boundary, restore into a freshly constructed object of the same
// configuration in a fresh process, and the continuation is bit-identical
// to an uninterrupted run.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace tsim::sim {

inline constexpr u32 kSnapshotMagic = 0x504E5354;  // "TSNP"
inline constexpr u32 kSnapshotVersion = 1;

/// A snapshot that cannot be decoded: truncated, corrupted (CRC/tag/length
/// mismatch), the wrong kind, or taken under an incompatible configuration.
/// Carries the file ("<memory>" for in-memory payloads) and the byte offset
/// at which decoding failed.
class SnapshotError : public SimError {
 public:
  SnapshotError(std::string file, u64 offset, const std::string& what)
      : SimError(file + " @" + std::to_string(offset) + ": " + what),
        file_(std::move(file)),
        offset_(offset) {}

  const std::string& file() const { return file_; }
  u64 offset() const { return offset_; }

 private:
  std::string file_;
  u64 offset_;
};

/// CRC-32 (ISO-HDLC / zlib polynomial, reflected, init/xorout 0xFFFFFFFF),
/// table-driven. `seed` chains partial buffers: crc32(b, n, crc32(a, m)).
u32 crc32(const void* data, size_t len, u32 seed = 0);

namespace detail {
template <class T> inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <class T> inline constexpr bool kIsAtomic = false;
template <class T> inline constexpr bool kIsAtomic<std::atomic<T>> = true;
template <class T> inline constexpr bool kIsUniquePtr = false;
template <class T>
inline constexpr bool kIsUniquePtr<std::unique_ptr<T>> = true;
}  // namespace detail

/// Serializes primitives into a growing byte buffer (the snapshot payload).
class SnapshotWriter {
 public:
  // ---- two-way codec, save side (see the header comment) ----
  template <class... Ts>
  void io(const Ts&... vs) {
    (put(vs), ...);
  }
  void io_tag(u32 t, const char*) { tag(t); }
  template <class T>
  void io_match(const T& v, const char*) {
    put(v);
  }
  void expect(bool, const char*) const {}
  void io_bytes(const void* data, size_t len) { append(data, len); }
  template <class T>
  void io_pod(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>);
    append(&v, sizeof v);
  }
  template <class T, class F>
  void io_each(const std::vector<T>& v, F&& f) {
    write_u64(v.size());
    for (const T& e : v) {
      if constexpr (detail::kIsUniquePtr<T>)
        f(std::as_const(*e));
      else
        f(e);
    }
  }

  // ---- typed primitives ----
  void write_u8(u8 v) { append(&v, 1); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_u32(u32 v) { append(&v, sizeof v); }
  void write_u64(u64 v) { append(&v, sizeof v); }
  void write_i64(i64 v) { append(&v, sizeof v); }
  void write_bytes(const void* data, size_t len) { append(data, len); }

  void write_string(std::string_view s) {
    write_u64(s.size());
    append(s.data(), s.size());
  }
  void write_vec_u8(const std::vector<u8>& v) { put(v); }
  void write_vec_u32(const std::vector<u32>& v) { put(v); }
  void write_vec_u64(const std::vector<u64>& v) { put(v); }

  /// Section marker; SnapshotReader::expect_tag checks it on decode.
  void tag(u32 t) { write_u32(t); }

  const std::string& payload() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, size_t len) {
    if (len != 0) buf_.append(static_cast<const char*>(data), len);
  }
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      append(&v, sizeof v);
    } else if constexpr (detail::kIsAtomic<T>) {
      put(v.load(std::memory_order_relaxed));
    } else if constexpr (std::is_same_v<T, std::string>) {
      write_string(v);
    } else if constexpr (detail::kIsVector<T>) {
      static_assert(std::is_arithmetic_v<typename T::value_type>,
                    "vectors of records go through io_each");
      write_u64(v.size());
      append(v.data(), v.size() * sizeof(typename T::value_type));
    } else if constexpr (requires { v.save_state(*this); }) {
      v.save_state(*this);
    } else {
      T::io_state(v, *this);
    }
  }
  std::string buf_;
};

/// Bounds-checked decoder over a snapshot payload. Every overrun or
/// mismatch throws SnapshotError with the source file and byte offset.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string payload, std::string file = "<memory>")
      : buf_(std::move(payload)), file_(std::move(file)) {}

  // ---- two-way codec, load side (see the header comment) ----
  template <class... Ts>
  void io(Ts&... vs) {
    (get(vs), ...);
  }
  void io_tag(u32 t, const char* what) { expect_tag(t, what); }
  template <class T>
  void io_match(const T& expected, const char* what) {
    T v{};
    get(v);
    expect(v == expected, what);
  }
  void expect(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  void io_bytes(void* out, size_t len) { read_bytes(out, len); }
  template <class T>
  void io_pod(T& v) {
    static_assert(std::has_unique_object_representations_v<T>);
    read_bytes(&v, sizeof v);
  }
  /// Every element takes at least one byte, so the count is checked against
  /// the bytes left before anything is allocated.
  template <class T, class F>
  void io_each(std::vector<T>& v, F&& f) {
    const u64 n = read_length(1, "sequence");
    v.clear();
    for (u64 i = 0; i < n; ++i) {
      if constexpr (detail::kIsUniquePtr<T>)
        f(*v.emplace_back(std::make_unique<typename T::element_type>()));
      else
        f(v.emplace_back());
    }
  }

  // ---- typed primitives ----
  u8 read_u8() { return take<u8>(); }
  bool read_bool() { return read_u8() != 0; }
  u32 read_u32() { return take<u32>(); }
  u64 read_u64() { return take<u64>(); }
  i64 read_i64() { return take<i64>(); }
  void read_bytes(void* out, size_t len) {
    need(len, "byte run");
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
  }

  std::string read_string() {
    const u64 n = read_length(1, "string");
    std::string s(buf_.data() + pos_, n);
    pos_ += n;
    return s;
  }
  std::vector<u8> read_vec_u8() { return read_vec<u8>("vec<u8>"); }
  std::vector<u32> read_vec_u32() { return read_vec<u32>("vec<u32>"); }
  std::vector<u64> read_vec_u64() { return read_vec<u64>("vec<u64>"); }

  /// Checks the next u32 equals `t`; `what` names the section in the error.
  void expect_tag(u32 t, const char* what) {
    const u64 at = pos_;
    const u32 got = read_u32();
    if (got != t)
      throw SnapshotError(file_, at,
                          std::string("bad section tag for ") + what);
  }

  /// Fails decoding at the current offset with a semantic error (value out
  /// of range, configuration mismatch, ...).
  [[noreturn]] void fail(const std::string& what) const {
    throw SnapshotError(file_, pos_, what);
  }

  u64 offset() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  /// Declares decoding complete; trailing bytes are corruption.
  void expect_end() const {
    if (pos_ != buf_.size())
      throw SnapshotError(file_, pos_, "trailing bytes after payload");
  }
  const std::string& file() const { return file_; }

 private:
  void need(size_t len, const char* what) const {
    if (len > buf_.size() - pos_)
      throw SnapshotError(file_, pos_,
                          std::string("truncated payload reading ") + what);
  }
  template <typename T>
  T take() {
    need(sizeof(T), "integer");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  /// Length prefix of `elem_size`-byte elements, validated against the
  /// remaining payload so a corrupt length cannot drive a huge allocation.
  u64 read_length(size_t elem_size, const char* what) {
    const u64 at = pos_;
    const u64 n = read_u64();
    if (n > (buf_.size() - pos_) / elem_size)
      throw SnapshotError(file_, at,
                          std::string("length overruns payload in ") + what);
    return n;
  }
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = read_bool();
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      v = take<T>();
    } else if constexpr (detail::kIsAtomic<T>) {
      typename T::value_type x;
      get(x);
      v.store(x, std::memory_order_relaxed);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = read_string();
    } else if constexpr (detail::kIsVector<T>) {
      v = read_vec<typename T::value_type>("vector");
    } else if constexpr (requires { v.restore_state(*this); }) {
      v.restore_state(*this);
    } else {
      T::io_state(v, *this);
    }
  }
  template <typename T>
  std::vector<T> read_vec(const char* what) {
    const u64 n = read_length(sizeof(T), what);
    std::vector<T> v(n);
    if (n != 0) {
      std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  std::string buf_;
  size_t pos_ = 0;
  std::string file_;
};

/// The in-memory container: the 24-byte header for (`kind`, `payload`)
/// followed by the payload. Files and the farm's worker pipe carry exactly
/// these bytes.
std::string encode_snapshot(u32 kind, const std::string& payload);

/// Verifies a container (magic, version, kind, size, CRC) and returns its
/// payload. The header's size must match the bytes actually present before
/// anything is allocated, so a corrupt size cannot drive a huge allocation.
/// Throws SnapshotError (labelled `name`) on any mismatch, truncation or
/// corruption.
std::string decode_snapshot(const std::string& bytes, u32 kind,
                            const std::string& name);

/// Atomically writes encode_snapshot(kind, payload) to `path`:
/// `<path>.tmp` + fsync + rename, so a visible file is always complete.
/// Throws SimError on any filesystem failure.
void write_snapshot_file(const std::string& path, u32 kind,
                         const std::string& payload);

/// Reads a snapshot file and returns decode_snapshot's payload. Throws
/// SnapshotError on any mismatch, truncation or corruption; SimError if the
/// file cannot be opened.
std::string read_snapshot_file(const std::string& path, u32 kind);

}  // namespace tsim::sim
