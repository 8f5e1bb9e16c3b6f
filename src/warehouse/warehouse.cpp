#include "warehouse/warehouse.h"

#include "obs/metrics.h"
#include "xml/xml.h"

namespace vmp::warehouse {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

struct WarehouseMetrics {
  obs::Counter* lookup_hits;
  obs::Counter* lookup_misses;
  obs::Counter* publishes;
  obs::Gauge* images;

  static WarehouseMetrics& get() {
    static WarehouseMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return WarehouseMetrics{r.counter("warehouse.lookup_hit.count"),
                              r.counter("warehouse.lookup_miss.count"),
                              r.counter("warehouse.publish.count"),
                              r.gauge("warehouse.images.gauge")};
    }();
    return m;
  }
};

/// FNV-1a 64-bit: tiny, deterministic across runs (the digests never leave
/// the process, so stability across versions does not matter).
std::uint64_t hash_signature(const std::string& signature) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : signature) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t action_mask(const std::vector<std::string>& signatures) {
  std::uint64_t mask = 0;
  for (const std::string& sig : signatures) {
    const std::uint64_t h = hash_signature(sig);
    mask |= 1ull << (h & 63);
    mask |= 1ull << ((h >> 21) & 63);
    mask |= 1ull << ((h >> 42) & 63);
  }
  return mask;
}

std::uint64_t action_fingerprint(const std::vector<std::string>& signatures) {
  // Wrapping sum (not XOR): duplicate signatures must not cancel out, since
  // the fingerprint identifies a multiset.
  std::uint64_t fp = 0;
  for (const std::string& sig : signatures) fp += hash_signature(sig);
  return fp;
}

std::string render_descriptor(const GoldenImage& image) {
  xml::Element root("golden");
  root.set_attr("id", image.id);
  root.set_attr("backend", image.backend);

  xml::Element& machine = root.add_child("machine");
  machine.set_attr("os", image.spec.os);
  machine.set_attr("memory-bytes", std::to_string(image.spec.memory_bytes));
  machine.set_attr("suspended", image.spec.suspended ? "true" : "false");
  xml::Element& disk = machine.add_child("disk");
  disk.set_attr("name", image.spec.disk.name);
  disk.set_attr("capacity-bytes",
                std::to_string(image.spec.disk.capacity_bytes));
  disk.set_attr("span-count", std::to_string(image.spec.disk.span_count));
  disk.set_attr("mode", storage::disk_mode_name(image.spec.disk.mode));

  xml::Element& performed = root.add_child("performed");
  for (const std::string& sig : image.performed) {
    performed.add_child("action-sig").set_text(sig);
  }
  return root.to_string();
}

Result<GoldenImage> parse_descriptor(const std::string& xml_text) {
  auto doc = xml::parse(xml_text);
  if (!doc.ok()) return doc.propagate<GoldenImage>();
  const xml::Element& root = *doc.value();
  if (root.name() != "golden") {
    return Result<GoldenImage>(
        Error(ErrorCode::kParseError, "descriptor: expected <golden> root"));
  }
  GoldenImage image;
  image.id = root.attr("id");
  image.backend = root.attr("backend");
  if (image.id.empty()) {
    return Result<GoldenImage>(
        Error(ErrorCode::kParseError, "descriptor: missing id"));
  }

  const xml::Element* machine = root.child("machine");
  if (machine == nullptr) {
    return Result<GoldenImage>(
        Error(ErrorCode::kParseError, "descriptor: missing <machine>"));
  }
  image.spec.os = machine->attr("os");
  image.spec.memory_bytes =
      static_cast<std::uint64_t>(machine->attr_int("memory-bytes", 0));
  image.spec.suspended = machine->attr("suspended") == "true";
  const xml::Element* disk = machine->child("disk");
  if (disk == nullptr) {
    return Result<GoldenImage>(
        Error(ErrorCode::kParseError, "descriptor: missing <disk>"));
  }
  image.spec.disk.name = disk->attr("name");
  image.spec.disk.capacity_bytes =
      static_cast<std::uint64_t>(disk->attr_int("capacity-bytes", 0));
  image.spec.disk.span_count =
      static_cast<std::uint32_t>(disk->attr_int("span-count", 1));
  auto mode = storage::parse_disk_mode(disk->attr("mode"));
  if (!mode.ok()) return mode.propagate<GoldenImage>();
  image.spec.disk.mode = mode.value();

  if (const xml::Element* performed = root.child("performed")) {
    for (const xml::Element* sig : performed->children_named("action-sig")) {
      image.performed.push_back(sig->text());
    }
  }
  VMP_RETURN_IF_ERROR_AS(image.spec.validate(), GoldenImage);
  return image;
}

Warehouse::Warehouse(storage::ArtifactStore* store, std::string base_dir)
    : store_(store), base_dir_(std::move(base_dir)) {
  (void)store_->make_dir(base_dir_);
}

std::string Warehouse::dir_for(const std::string& id) const {
  return base_dir_ + "/" + id;
}

Warehouse::IndexedImage Warehouse::index_image(GoldenImage image) {
  IndexedImage indexed;
  indexed.mask = action_mask(image.performed);
  indexed.fingerprint = action_fingerprint(image.performed);
  indexed.performed = std::make_shared<const std::vector<std::string>>(
      std::move(image.performed));
  image.performed.clear();
  indexed.image = std::move(image);
  return indexed;
}

GoldenImage Warehouse::IndexedImage::full() const {
  GoldenImage out = image;
  if (performed) out.performed = *performed;  // a placeholder has none
  return out;
}

Status Warehouse::publish(const GoldenImage& image) {
  VMP_RETURN_IF_ERROR(image.spec.validate());
  if (image.id.empty()) {
    return Status(ErrorCode::kInvalidArgument, "image id must not be empty");
  }

  GoldenImage stored = image;
  stored.layout.dir = dir_for(image.id);

  // Claim the id first (exclusive lock is held only for the map insert), so
  // the artefact materialization below runs against a directory no other
  // publisher can touch — and so concurrent match scans never block on
  // publish I/O.  The placeholder has an empty layout dir; readers treat
  // the id as taken but the image is not yet servable via match/lookup
  // (publish has always been non-atomic from the caller's view: it either
  // completes or removes its partial tree).
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (!images_.emplace(stored.id, IndexedImage{}).second) {
      return Status(ErrorCode::kAlreadyExists,
                    "golden image exists: " + image.id);
    }
  }

  // The warehouse must never keep a half-written image directory: any
  // failure after the directory exists removes the partial tree (and the
  // claimed id) before the error propagates, so a later rescan() sees
  // complete images only.
  auto abort_publish = [&](const Error& error) {
    (void)store_->remove_tree(stored.layout.dir);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    images_.erase(stored.id);
    return Status(error);
  };

  auto materialized = storage::materialize_image(store_, stored.layout, stored.spec);
  if (!materialized.ok()) return abort_publish(materialized.error());

  auto guest_write = store_->write_file(stored.layout.dir + "/guest.state",
                                        hv::render_guest_state(stored.guest));
  if (!guest_write.ok()) return abort_publish(guest_write.error());

  auto desc_write = store_->write_file(stored.layout.dir + "/descriptor.xml",
                                       render_descriptor(stored));
  if (!desc_write.ok()) return abort_publish(desc_write.error());

  std::unique_lock<std::shared_mutex> lock(mutex_);
  const std::string id = stored.id;
  images_[id] = index_image(std::move(stored));
  WarehouseMetrics::get().publishes->add();
  WarehouseMetrics::get().images->set(static_cast<std::int64_t>(images_.size()));
  return Status();
}

Result<GoldenImage> Warehouse::publish_new(
    const std::string& id, const std::string& backend,
    const storage::MachineSpec& spec, const hv::GuestState& guest,
    const std::vector<std::string>& performed) {
  GoldenImage image;
  image.id = id;
  image.backend = backend;
  image.spec = spec;
  image.guest = guest;
  image.performed = performed;
  VMP_RETURN_IF_ERROR_AS(publish(image), GoldenImage);
  return lookup(id);
}

Result<GoldenImage> Warehouse::lookup(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = images_.find(id);
  // A claimed-but-still-materializing publish (empty placeholder) is not
  // servable yet; it reads as a miss, same as before the claim.
  if (it == images_.end() || it->second.image.id.empty()) {
    WarehouseMetrics::get().lookup_misses->add();
    return Result<GoldenImage>(
        Error(ErrorCode::kNotFound, "no golden image: " + id));
  }
  WarehouseMetrics::get().lookup_hits->add();
  return it->second.full();
}

bool Warehouse::contains(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = images_.find(id);
  return it != images_.end() && !it->second.image.id.empty();
}

bool Warehouse::claimed(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return images_.count(id) != 0;
}

Status Warehouse::remove(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = images_.find(id);
  if (it == images_.end() || it->second.image.id.empty()) {
    return Status(ErrorCode::kNotFound, "no golden image: " + id);
  }
  auto removed = store_->remove_tree(it->second.image.layout.dir);
  if (!removed.ok()) return removed.error();
  images_.erase(it);
  WarehouseMetrics::get().images->set(static_cast<std::int64_t>(images_.size()));
  return Status();
}

Result<GoldenImage> Warehouse::detach(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = images_.find(id);
  if (it == images_.end() || it->second.image.id.empty()) {
    return Result<GoldenImage>(
        Error(ErrorCode::kNotFound, "no golden image: " + id));
  }
  GoldenImage detached = std::move(it->second.image);
  detached.performed = *it->second.performed;
  images_.erase(it);
  WarehouseMetrics::get().images->set(static_cast<std::int64_t>(images_.size()));
  return detached;
}

Status Warehouse::attach(GoldenImage image) {
  if (image.id.empty()) {
    return Status(ErrorCode::kInvalidArgument, "image id must not be empty");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const std::string id = image.id;
  auto [it, inserted] = images_.emplace(id, IndexedImage{});
  if (!inserted) {
    return Status(ErrorCode::kAlreadyExists, "golden image exists: " + id);
  }
  it->second = index_image(std::move(image));
  WarehouseMetrics::get().images->set(
      static_cast<std::int64_t>(images_.size()));
  return Status();
}

std::vector<GoldenImage> Warehouse::list() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<GoldenImage> out;
  out.reserve(images_.size());
  for (const auto& [id, indexed] : images_) {
    if (!indexed.image.id.empty()) out.push_back(indexed.full());
  }
  return out;
}

std::vector<GoldenImage> Warehouse::list_backend(
    const std::string& backend) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<GoldenImage> out;
  for (const auto& [id, indexed] : images_) {
    if (indexed.image.backend == backend) out.push_back(indexed.full());
  }
  return out;
}

CandidateSet Warehouse::match_candidates(
    const std::string& backend,
    const std::function<bool(const GoldenImage&)>& hardware_ok,
    std::uint64_t request_mask) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  CandidateSet out;
  for (const auto& [id, indexed] : images_) {
    // A mid-publish placeholder claim (empty id) is not servable yet.
    if (indexed.image.id.empty() || indexed.image.backend != backend) continue;
    if (!hardware_ok(indexed.image)) continue;
    ++out.hardware_candidates;
    if ((indexed.mask & ~request_mask) != 0) {
      // Some performed signature is provably not a request node: the
      // Subset test cannot pass, skip the DAG evaluation entirely.
      ++out.mask_rejected;
      continue;
    }
    out.candidates.push_back(CandidateView{indexed.image.id, indexed.performed,
                                           *indexed.performed,
                                           indexed.fingerprint});
  }
  return out;
}

Status Warehouse::rescan() {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto entries = store_->list_dir(base_dir_);
  if (!entries.ok()) return entries.error();

  std::map<std::string, IndexedImage> rebuilt;
  for (const std::string& entry : entries.value()) {
    const std::string descriptor_path = base_dir_ + "/" + entry + "/descriptor.xml";
    if (!store_->exists(descriptor_path)) continue;  // not an image dir
    auto text = store_->read_file(descriptor_path);
    if (!text.ok()) return text.error();
    auto image = parse_descriptor(text.value());
    if (!image.ok()) {
      return Status(image.error().code(),
                    "rescan " + descriptor_path + ": " + image.error().message());
    }
    GoldenImage loaded = std::move(image).value();
    loaded.layout.dir = base_dir_ + "/" + entry;
    auto guest_text = store_->read_file(loaded.layout.dir + "/guest.state");
    if (guest_text.ok()) {
      auto guest = hv::parse_guest_state(guest_text.value());
      if (!guest.ok()) return guest.error();
      loaded.guest = std::move(guest).value();
    }
    const std::string loaded_id = loaded.id;
    rebuilt.emplace(loaded_id, index_image(std::move(loaded)));
  }
  images_ = std::move(rebuilt);
  return Status();
}

std::size_t Warehouse::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return images_.size();
}

}  // namespace vmp::warehouse
