#include "obs/journal.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstring>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vmp::obs {

namespace {
const util::Logger kLog("journal");

/// Records a durable sink failed to persist (dead sink or short write),
/// fleet-visible: FleetAggregator lifts it into the per-plant health ad and
/// the obs://fleet/metrics rollup, so a dying journal is not just a local
/// accessor nobody polls.
Counter* dropped_counter() {
  static Counter* c =
      MetricsRegistry::instance().counter("lifecycle.journal.dropped.count");
  return c;
}
}  // namespace

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".vmj";
/// A record larger than this is treated as corruption, not data: the codec
/// never produces one (ids are capped far below), so an oversized length
/// prefix means the tail bytes are garbage.
constexpr std::uint32_t kMaxRecordBytes = 64u << 10;

std::uint32_t fnv1a32(const char* data, std::size_t size) {
  std::uint32_t hash = 2166136261u;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 16777619u;
  }
  return hash;
}

void put_u16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string* out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

double get_f64(const char* p) { return std::bit_cast<double>(get_u64(p)); }

std::string segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06zu%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return buf;
}

/// Segment files under `dir`, name order (names zero-pad, so lexicographic
/// order is write order).  Missing directory -> empty list.
std::vector<std::filesystem::path> list_segments(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) == 0 &&
        name.size() > sizeof(kSegmentSuffix) &&
        name.compare(name.size() + 1 - sizeof(kSegmentSuffix),
                     sizeof(kSegmentSuffix) - 1, kSegmentSuffix) == 0) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* journal_event_name(JournalEvent kind) noexcept {
  switch (kind) {
    case JournalEvent::kPublishReserve: return "publish_reserve";
    case JournalEvent::kPublishCommit: return "publish_commit";
    case JournalEvent::kPublishReject: return "publish_reject";
    case JournalEvent::kEvictBegin: return "evict_begin";
    case JournalEvent::kEvictCommit: return "evict_commit";
    case JournalEvent::kEvictRollback: return "evict_rollback";
    case JournalEvent::kLeaseAcquire: return "lease_acquire";
    case JournalEvent::kLeaseRelease: return "lease_release";
    case JournalEvent::kZombify: return "zombify";
    case JournalEvent::kReap: return "reap";
    case JournalEvent::kOrphanReap: return "orphan_reap";
    case JournalEvent::kWarmStart: return "warm_start";
    case JournalEvent::kAdopt: return "adopt";
    case JournalEvent::kFaultFired: return "fault_fired";
  }
  return "unknown";
}

std::string JournalRecord::to_json() const {
  // %.6f of a large clock value can emit hundreds of characters, so the
  // head is sized from a dry run instead of a fixed guess — a truncated
  // head would be a silently malformed JSON line in a flight dump.
  constexpr char kFormat[] =
      "{\"seq\": %" PRIu64 ", \"kind\": \"%s\", \"t\": %.6f, "
      "\"wall\": %.6f, \"bytes\": %lld, \"aux\": %" PRIu64
      ", \"value\": %.9g, \"id\": \"";
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf), kFormat, seq,
                        journal_event_name(kind), time_s, wall_s,
                        static_cast<long long>(bytes_delta), aux, value);
  if (n < 0) return "{}";
  std::string head;
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    head.assign(buf, static_cast<std::size_t>(n));
  } else {
    head.resize(static_cast<std::size_t>(n) + 1);
    std::snprintf(head.data(), head.size(), kFormat, seq,
                  journal_event_name(kind), time_s, wall_s,
                  static_cast<long long>(bytes_delta), aux, value);
    head.resize(static_cast<std::size_t>(n));
  }
  std::string out = head + json_escape(image_id) + "\"";
  if (!trace_id.empty()) {
    out += ", \"trace\": \"" + json_escape(trace_id) + "\"";
  }
  return out + "}";
}

void Journal::encode(const JournalRecord& record, std::string* out) {
  std::string payload;
  payload.reserve(51 + record.image_id.size());
  payload.push_back(static_cast<char>(record.kind));
  put_u64(&payload, record.seq);
  put_f64(&payload, record.time_s);
  put_f64(&payload, record.wall_s);
  put_u64(&payload, std::bit_cast<std::uint64_t>(record.bytes_delta));
  put_u64(&payload, record.aux);
  put_f64(&payload, record.value);
  const std::uint16_t id_len = static_cast<std::uint16_t>(
      std::min<std::size_t>(record.image_id.size(), 0xffff));
  put_u16(&payload, id_len);
  payload.append(record.image_id.data(), id_len);
  // The trace block is written only when there is a trace: a payload that
  // ends at the id is byte-identical to the pre-trace format, so journals
  // written by either side of this change replay on the other.
  if (!record.trace_id.empty()) {
    const std::uint16_t trace_len = static_cast<std::uint16_t>(
        std::min<std::size_t>(record.trace_id.size(), 0xffff));
    put_u16(&payload, trace_len);
    payload.append(record.trace_id.data(), trace_len);
  }

  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload);
  put_u32(out, fnv1a32(payload.data(), payload.size()));
}

std::size_t Journal::decode(const char* data, std::size_t size,
                            JournalRecord* record) {
  if (size < 4) return 0;
  const std::uint32_t len = get_u32(data);
  // header(4) + payload + checksum(4); the fixed payload head is 51 bytes.
  if (len < 51 || len > kMaxRecordBytes || size < 8u + len) return 0;
  const char* payload = data + 4;
  if (get_u32(payload + len) != fnv1a32(payload, len)) return 0;
  const std::uint16_t id_len = get_u16(payload + 49);
  // Either the payload ends at the id (pre-trace format, trace_id empty) or
  // a [u16 trace_len | trace] block follows and must account for every
  // remaining byte — anything else is corruption.
  record->trace_id.clear();
  if (51u + id_len != len) {
    if (len < 53u + id_len) return 0;
    const std::uint16_t trace_len = get_u16(payload + 51 + id_len);
    if (53u + id_len + trace_len != len) return 0;
    record->trace_id.assign(payload + 53 + id_len, trace_len);
  }
  record->kind = static_cast<JournalEvent>(payload[0]);
  record->seq = get_u64(payload + 1);
  record->time_s = get_f64(payload + 9);
  record->wall_s = get_f64(payload + 17);
  record->bytes_delta = std::bit_cast<std::int64_t>(get_u64(payload + 25));
  record->aux = get_u64(payload + 33);
  record->value = get_f64(payload + 41);
  record->image_id.assign(payload + 51, id_len);
  return 8u + len;
}

Journal::Journal(std::size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

Journal::~Journal() { close_durable(); }

Journal& Journal::instance() {
  static Journal* journal = [] {
    auto* j = new Journal();
    // Observability taps, not plan state: both survive install()/clear() so
    // a counterexample's flight dump always shows which injections fired.
    // The listener runs on the consulting thread, so the kFaultFired append
    // picks up that thread's trace context; the trace provider additionally
    // stamps the registry's own firing log (sequence_traces()).
    fault::FaultRegistry::instance().set_fire_listener(
        [j](const std::string& point, const std::string& detail) {
          j->append(JournalEvent::kFaultFired,
                    detail.empty() ? point : point + "@" + detail);
        });
    fault::FaultRegistry::instance().set_trace_provider(
        [] { return Tracer::current().trace_id; });
    return j;
  }();
  return *journal;
}

void Journal::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double Journal::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (clock_) return clock_();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Journal::append(JournalEvent kind, std::string_view image_id,
                     std::int64_t bytes_delta, std::uint64_t aux,
                     double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  JournalRecord record;
  record.seq = next_seq_++;
  record.kind = kind;
  record.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  record.time_s = clock_ ? clock_() : record.wall_s;
  record.bytes_delta = bytes_delta;
  record.aux = aux;
  record.value = value;
  record.image_id.assign(image_id);
  // Correlation stamp (DESIGN.md §14): the lifecycle transitions a traced
  // create causes (evictions, lease waits, rejects) run on the request's
  // own thread, so the thread-local trace context is exactly the causing
  // trace — no parameter plumbing through the lifecycle call sites.
  if (tracer_armed()) record.trace_id = Tracer::current().trace_id;
  ++appended_;
  if (segment_ != nullptr) {
    append_durable_locked(record);
  } else if (durable_dead_) {
    ++durable_dropped_;  // sink died mid-run; the ring alone has this one
    dropped_counter()->add();
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    ring_next_ = ring_.size() % capacity_;
  } else {
    ring_[ring_next_] = std::move(record);
    ring_next_ = (ring_next_ + 1) % capacity_;
  }
}

std::vector<JournalRecord> Journal::ring() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JournalRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_next_ + i) % capacity_]);
    }
  }
  return out;
}

void Journal::clear_ring() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  ring_next_ = 0;
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::string Journal::ring_jsonl() const {
  std::string out;
  for (const JournalRecord& record : ring()) {
    out += record.to_json();
    out += '\n';
  }
  return out;
}

bool Journal::dump_ring_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = ring_jsonl();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

Status Journal::open_durable(const std::filesystem::path& dir,
                             JournalDurableConfig config) {
  auto replayed = replay(dir);
  if (!replayed.ok()) return replayed.error();

  std::lock_guard<std::mutex> lock(mutex_);
  if (segment_ != nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  "journal: durable sink already open at " + dir_.string());
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status(ErrorCode::kInternal,
                  "journal: cannot create " + dir.string() + ": " +
                      ec.message());
  }
  // Never append into a possibly-torn tail: always start a fresh segment
  // after the existing ones.  The torn record (if any) stays where it is —
  // replay skips it — and rotation keeps segment sizes bounded anyway.
  const std::size_t next_index = list_segments(dir).size() + 1;
  const std::filesystem::path path = dir / segment_name(next_index);
  std::FILE* f = std::fopen(path.string().c_str(), "ab");
  if (f == nullptr) {
    return Status(ErrorCode::kInternal,
                  "journal: cannot open segment " + path.string());
  }
  dir_ = dir;
  durable_config_ = config;
  segment_ = f;
  segment_index_ = next_index;
  segment_bytes_ = 0;
  segments_open_ = 1;
  durable_dropped_ = 0;
  durable_dead_ = false;
  recovered_ = std::move(replayed).value();
  next_seq_ = std::max(next_seq_, recovered_->last_seq + 1);
  return Status();
}

void Journal::close_durable() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment_ != nullptr) {
    std::fclose(segment_);
    segment_ = nullptr;
  }
  segments_open_ = 0;
  durable_dead_ = false;
  recovered_.reset();
}

bool Journal::durable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segment_ != nullptr;
}

void Journal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment_ != nullptr) std::fflush(segment_);
}

std::size_t Journal::segments_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_open_;
}

std::uint64_t Journal::durable_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_dropped_;
}

const std::optional<JournalReplay>& Journal::recovered() const {
  // recovered_ only changes under open/close; callers hold the journal
  // single-threaded during recovery (warm_start runs before serving).
  return recovered_;
}

void Journal::append_durable_locked(const JournalRecord& record) {
  std::string bytes;
  encode(record, &bytes);
  if (segment_bytes_ + bytes.size() > durable_config_.max_segment_bytes &&
      segment_bytes_ > 0) {
    rotate_locked();
  }
  if (segment_ == nullptr) {
    // Rotation failed and the sink is dead: the ring still has the record,
    // but the durable log does not — count it so the loss is visible.
    ++durable_dropped_;
    dropped_counter()->add();
    return;
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), segment_) == bytes.size()) {
    segment_bytes_ += bytes.size();
    if (durable_config_.flush_each_append) std::fflush(segment_);
  } else {
    ++durable_dropped_;
    dropped_counter()->add();
  }
}

void Journal::rotate_locked() {
  std::fflush(segment_);
  std::fclose(segment_);
  segment_ = nullptr;
  const std::filesystem::path path = dir_ / segment_name(segment_index_ + 1);
  std::FILE* f = std::fopen(path.string().c_str(), "ab");
  if (f == nullptr) {
    // The sink is dead until the next open_durable(): appends stay ring-only
    // and are counted in durable_dropped().
    segments_open_ = 0;
    durable_dead_ = true;
    kLog.warn() << "cannot open segment " << path.string()
                << "; durable sink dead, further appends are ring-only";
    return;
  }
  segment_ = f;
  ++segment_index_;
  segment_bytes_ = 0;
  ++segments_open_;
}

Result<JournalReplay> Journal::replay(const std::filesystem::path& dir) {
  JournalReplay out;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return out;
  const std::vector<std::filesystem::path> segments = list_segments(dir);
  for (const std::filesystem::path& path : segments) {
    ++out.segments;
    std::FILE* f = std::fopen(path.string().c_str(), "rb");
    if (f == nullptr) {
      return Result<JournalReplay>(Error(
          ErrorCode::kInternal, "journal: cannot read " + path.string()));
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);

    std::size_t offset = 0;
    const std::size_t first = out.records.size();
    while (offset < bytes.size()) {
      JournalRecord record;
      const std::size_t consumed =
          decode(bytes.data() + offset, bytes.size() - offset, &record);
      if (consumed == 0) {
        // Torn or corrupt: this segment's crash tail.  A record boundary
        // cannot be re-synchronized past a bad length, but segment starts
        // are clean resync points — and open_durable() leaves a torn
        // segment in place and writes post-crash history into FRESH
        // segments, so later segments must still be read.
        out.tears.push_back({path.filename().string(), offset,
                             bytes.size() - offset,
                             out.records.size() - first});
        break;
      }
      offset += consumed;
      out.last_seq = std::max(out.last_seq, record.seq);
      out.records.push_back(std::move(record));
    }
  }
  return out;
}

}  // namespace vmp::obs
