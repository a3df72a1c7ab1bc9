#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"

namespace dlacep {

namespace {

constexpr char kMagic[4] = {'D', 'L', 'C', 'K'};
// v2 appends the adaptive engine-selection block; v1 files (no block)
// still load, restoring has_adaptive == 0.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

// Bounds applied before any allocation driven by file contents.
constexpr uint64_t kMaxVecLen = 1ull << 32;
constexpr uint64_t kMaxAttrs = 1ull << 16;

void AppendRaw(std::string* buf, const void* data, size_t len) {
  buf->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendScalar(std::string* buf, T v) {
  AppendRaw(buf, &v, sizeof(v));
}

void AppendEvent(std::string* buf, const Event& e) {
  AppendScalar<uint64_t>(buf, e.id);
  AppendScalar<int32_t>(buf, e.type);
  AppendScalar<double>(buf, e.timestamp);
  AppendScalar<uint64_t>(buf, e.attrs.size());
  AppendRaw(buf, e.attrs.data(), e.attrs.size() * sizeof(double));
}

template <typename T>
void AppendFlatVec(std::string* buf, const std::vector<T>& v) {
  AppendScalar<uint64_t>(buf, v.size());
  AppendRaw(buf, v.data(), v.size() * sizeof(T));
}

void AppendIdVec(std::string* buf, const std::vector<uint64_t>& v) {
  AppendFlatVec(buf, v);
}

void AppendEventVec(std::string* buf, const std::vector<Event>& v) {
  AppendScalar<uint64_t>(buf, v.size());
  for (const Event& e : v) AppendEvent(buf, e);
}

class Reader {
 public:
  Reader(const char* data, size_t len) : data_(data), len_(len) {}

  bool Read(void* out, size_t n) {
    if (n > len_ - pos_) return false;
    if (n == 0) return true;  // an empty vector's data() may be null
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* out) {
    return Read(out, sizeof(T));
  }

  bool ReadEvent(Event* out) {
    uint64_t id = 0;
    int32_t type = 0;
    double ts = 0.0;
    uint64_t num_attrs = 0;
    if (!ReadScalar(&id) || !ReadScalar(&type) || !ReadScalar(&ts) ||
        !ReadScalar(&num_attrs) || num_attrs > kMaxAttrs) {
      return false;
    }
    std::vector<double> attrs(num_attrs);
    if (!Read(attrs.data(), num_attrs * sizeof(double))) return false;
    *out = Event(id, type, ts, std::move(attrs));
    return true;
  }

  template <typename T>
  bool ReadFlatVec(std::vector<T>* out) {
    uint64_t n = 0;
    if (!ReadScalar(&n) || n > kMaxVecLen) return false;
    out->resize(n);
    return Read(out->data(), n * sizeof(T));
  }

  bool ReadIdVec(std::vector<uint64_t>* out) { return ReadFlatVec(out); }

  bool ReadEventVec(std::vector<Event>* out) {
    uint64_t n = 0;
    if (!ReadScalar(&n) || n > kMaxVecLen) return false;
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      Event e;
      if (!ReadEvent(&e)) return false;
      out->push_back(std::move(e));
    }
    return true;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

std::string SerializePayload(const CheckpointState& s) {
  std::string p;
  AppendScalar<uint64_t>(&p, s.mark_size);
  AppendScalar<uint64_t>(&p, s.step_size);
  AppendScalar<uint64_t>(&p, s.appended);
  AppendScalar<uint64_t>(&p, s.next_begin);
  AppendScalar<uint64_t>(&p, s.windows_dispatched);
  AppendScalar<uint64_t>(&p, s.last_end);
  AppendScalar<uint64_t>(&p, s.buffer_offset);
  AppendEventVec(&p, s.buffer);
  AppendIdVec(&p, s.marked_ids);
  AppendEventVec(&p, s.marked_events);
  AppendIdVec(&p, s.seen);
  AppendIdVec(&p, s.quarantined);
  AppendScalar<uint64_t>(&p, s.events_dropped_queue);
  AppendScalar<uint64_t>(&p, s.windows_closed);
  AppendScalar<uint64_t>(&p, s.windows_boosted);
  AppendScalar<uint64_t>(&p, s.windows_shed);
  AppendScalar<uint64_t>(&p, s.windows_quarantined);
  AppendScalar<uint64_t>(&p, s.windows_degraded);
  AppendScalar<uint64_t>(&p, s.health_violations);
  AppendScalar<uint64_t>(&p, s.health_degrades);
  AppendScalar<uint64_t>(&p, s.health_recoveries);
  AppendScalar<uint64_t>(&p, s.probes_run);
  AppendScalar<uint64_t>(&p, s.probes_passed);
  AppendScalar<uint64_t>(&p, s.checkpoints_written);
  AppendScalar<uint64_t>(&p, s.drift_flags);
  AppendScalar<int32_t>(&p, s.controller_level);
  AppendScalar<uint64_t>(&p, s.probe_pass_run);
  AppendScalar<uint64_t>(&p, s.degraded_since_probe);
  // v2: adaptive engine-selection block.
  AppendScalar<uint8_t>(&p, s.has_adaptive);
  AppendScalar<int32_t>(&p, s.adaptive_selected);
  AppendScalar<uint64_t>(&p, s.adaptive_windows_observed);
  AppendScalar<uint64_t>(&p, s.adaptive_switches);
  AppendScalar<uint8_t>(&p, s.adaptive_external_feed);
  AppendFlatVec(&p, s.adaptive_freq_types);
  AppendFlatVec(&p, s.adaptive_freq_counts);
  return p;
}

bool ParsePayload(Reader* r, uint32_t version, CheckpointState* s) {
  return r->ReadScalar(&s->mark_size) && r->ReadScalar(&s->step_size) &&
         r->ReadScalar(&s->appended) && r->ReadScalar(&s->next_begin) &&
         r->ReadScalar(&s->windows_dispatched) &&
         r->ReadScalar(&s->last_end) && r->ReadScalar(&s->buffer_offset) &&
         r->ReadEventVec(&s->buffer) && r->ReadIdVec(&s->marked_ids) &&
         r->ReadEventVec(&s->marked_events) && r->ReadIdVec(&s->seen) &&
         r->ReadIdVec(&s->quarantined) &&
         r->ReadScalar(&s->events_dropped_queue) &&
         r->ReadScalar(&s->windows_closed) &&
         r->ReadScalar(&s->windows_boosted) &&
         r->ReadScalar(&s->windows_shed) &&
         r->ReadScalar(&s->windows_quarantined) &&
         r->ReadScalar(&s->windows_degraded) &&
         r->ReadScalar(&s->health_violations) &&
         r->ReadScalar(&s->health_degrades) &&
         r->ReadScalar(&s->health_recoveries) &&
         r->ReadScalar(&s->probes_run) && r->ReadScalar(&s->probes_passed) &&
         r->ReadScalar(&s->checkpoints_written) &&
         r->ReadScalar(&s->drift_flags) &&
         r->ReadScalar(&s->controller_level) &&
         r->ReadScalar(&s->probe_pass_run) &&
         r->ReadScalar(&s->degraded_since_probe) &&
         (version < 2 ||
          (r->ReadScalar(&s->has_adaptive) &&
           r->ReadScalar(&s->adaptive_selected) &&
           r->ReadScalar(&s->adaptive_windows_observed) &&
           r->ReadScalar(&s->adaptive_switches) &&
           r->ReadScalar(&s->adaptive_external_feed) &&
           r->ReadFlatVec(&s->adaptive_freq_types) &&
           r->ReadFlatVec(&s->adaptive_freq_counts) &&
           s->adaptive_freq_types.size() ==
               s->adaptive_freq_counts.size())) &&
         r->AtEnd();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("open failed for " + tmp + ": " +
                            std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("write failed for " + tmp + ": " +
                              std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync failed for " + tmp + ": " +
                            std::strerror(err));
  }
  if (::close(fd) != 0) {
    return Status::Internal("close failed for " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path + ": " +
                            std::strerror(err));
  }
  // Persist the rename itself: fsync the containing directory.
  //
  // Durability contract: when WriteFileAtomic returns OK the checkpoint
  // is crash-durable — the file's *contents* were fsync'd before the
  // rename, and the directory fsync here makes the rename's directory
  // entry durable too. Without it, a power loss immediately after
  // rename() can leave a directory that still names the old file (or
  // nothing), silently losing an acknowledged checkpoint. A failure at
  // this stage is therefore an error, not best-effort: the caller must
  // not count the checkpoint as written.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Internal("open failed for checkpoint dir " + dir + ": " +
                            std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    const int err = errno;
    ::close(dfd);
    return Status::Internal("fsync failed for checkpoint dir " + dir +
                            ": " + std::strerror(err));
  }
  if (::close(dfd) != 0) {
    return Status::Internal("close failed for checkpoint dir " + dir);
  }
  return Status::Ok();
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  if (dir.empty() || dir.back() == '/') return dir + "checkpoint.dlck";
  return dir + "/checkpoint.dlck";
}

Status SaveCheckpoint(const CheckpointState& state, const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint dir is empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create checkpoint dir " + dir + ": " +
                            std::strerror(errno));
  }
  const std::string payload = SerializePayload(state);
  const uint32_t crc = Crc32(payload.data(), payload.size());

  std::string bytes;
  bytes.reserve(sizeof(kMagic) + sizeof(kVersion) + payload.size() +
                sizeof(crc));
  AppendRaw(&bytes, kMagic, sizeof(kMagic));
  AppendScalar<uint32_t>(&bytes, kVersion);
  bytes += payload;
  AppendScalar<uint32_t>(&bytes, crc);
  return WriteFileAtomic(CheckpointPath(dir), bytes);
}

StatusOr<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("no checkpoint at " + path);
  }
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal("read failed for " + path + ": " +
                              std::strerror(err));
    }
    if (n == 0) break;
    bytes.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header = sizeof(kMagic) + sizeof(uint32_t);
  if (bytes.size() < header + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a DLCK checkpoint: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version in " +
                                   path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const char* payload = bytes.data() + header;
  const size_t payload_len = bytes.size() - header - sizeof(uint32_t);
  if (Crc32(payload, payload_len) != stored_crc) {
    return Status::InvalidArgument("checksum mismatch in checkpoint: " +
                                   path);
  }
  Reader reader(payload, payload_len);
  CheckpointState state;
  if (!ParsePayload(&reader, version, &state)) {
    return Status::InvalidArgument("corrupt checkpoint payload: " + path);
  }
  return state;
}

}  // namespace dlacep
