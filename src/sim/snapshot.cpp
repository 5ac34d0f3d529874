#include "sim/snapshot.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define TSIM_SNAPSHOT_HAS_FSYNC 1
#endif

namespace tsim::sim {

namespace {

/// Size of the header (see snapshot.h).
constexpr size_t kHeaderBytes = 24;

const std::array<u32, 256>& crc_table() {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// RAII stdio handle so error paths cannot leak the FILE*.
struct File {
  FILE* f = nullptr;
  explicit File(FILE* fp) : f(fp) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

[[noreturn]] void fail_io(const std::string& path, const char* what) {
  throw SimError(path + ": " + what + " (" + std::strerror(errno) + ")");
}

}  // namespace

u32 crc32(const void* data, size_t len, u32 seed) {
  const auto& table = crc_table();
  const u8* p = static_cast<const u8*>(data);
  u32 crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_snapshot(u32 kind, const std::string& payload) {
  // Field by field, never a struct copy, so padding cannot leak host memory.
  SnapshotWriter w;
  w.write_u32(kSnapshotMagic);
  w.write_u32(kSnapshotVersion);
  w.write_u32(kind);
  w.write_u32(crc32(payload.data(), payload.size()));
  w.write_u64(payload.size());
  w.write_bytes(payload.data(), payload.size());
  return w.payload();
}

std::string decode_snapshot(const std::string& bytes, u32 kind,
                            const std::string& name) {
  if (bytes.size() < kHeaderBytes)
    throw SnapshotError(name, bytes.size(), "truncated snapshot header");
  SnapshotReader h(bytes.substr(0, kHeaderBytes), name);
  if (h.read_u32() != kSnapshotMagic)
    throw SnapshotError(name, 0, "bad magic (not a snapshot)");
  const u32 version = h.read_u32();
  if (version != kSnapshotVersion)
    throw SnapshotError(name, 4,
                        "unsupported snapshot version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kSnapshotVersion) + ")");
  const u32 got_kind = h.read_u32();
  if (got_kind != kind)
    throw SnapshotError(name, 8,
                        "wrong snapshot kind " + std::to_string(got_kind) +
                            " (expected " + std::to_string(kind) + ")");
  const u32 crc = h.read_u32();
  // The size is untrusted: compare it with the bytes present before copying
  // anything out.
  const u64 size = h.read_u64();
  const u64 present = bytes.size() - kHeaderBytes;
  if (size > present)
    throw SnapshotError(name, bytes.size(), "truncated payload");
  if (size < present)
    throw SnapshotError(name, kHeaderBytes + size,
                        "trailing bytes after payload");
  if (crc32(bytes.data() + kHeaderBytes, present) != crc)
    throw SnapshotError(name, kHeaderBytes, "payload CRC mismatch");
  return bytes.substr(kHeaderBytes);
}

void write_snapshot_file(const std::string& path, u32 kind,
                         const std::string& payload) {
  const std::string bytes = encode_snapshot(kind, payload);
  const std::string tmp = path + ".tmp";
  {
    File file(std::fopen(tmp.c_str(), "wb"));
    if (file.f == nullptr) fail_io(tmp, "cannot create snapshot temp file");
    if (std::fwrite(bytes.data(), 1, bytes.size(), file.f) != bytes.size())
      fail_io(tmp, "short write");
    if (std::fflush(file.f) != 0) fail_io(tmp, "flush failed");
#ifdef TSIM_SNAPSHOT_HAS_FSYNC
    // Durability before visibility: the rename below must never publish a
    // file whose bytes are still in the page cache of a crashed host.
    if (fsync(fileno(file.f)) != 0) fail_io(tmp, "fsync failed");
#endif
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    fail_io(path, "rename into place failed");
}

std::string read_snapshot_file(const std::string& path, u32 kind) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file.f == nullptr)
    throw SimError(path + ": cannot open snapshot (" + std::strerror(errno) +
                   ")");
  std::string bytes;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, file.f)) > 0) bytes.append(buf, n);
  if (std::ferror(file.f) != 0) fail_io(path, "read failed");
  return decode_snapshot(bytes, kind, path);
}

}  // namespace tsim::sim
