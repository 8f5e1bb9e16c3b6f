// The VM Warehouse: storage and lookup of "golden" images.
//
// Paper, Section 3.2: "The VM Warehouse stores 'golden' images of not only
// pre-built images with typical installations of popular operating systems,
// but also images that are set up and customized for an application by
// providing VM installers with the capability of publishing a VM image to
// the Warehouse, for subsequent instantiations through VMPlant."  And 4.1:
// "Golden machines are stored as files in sub-directories of the VM
// Warehouse; each golden machine is specified by a configuration file, and
// virtual disk and memory files.  XML files are used to describe such
// cached images in terms of their memory sizes, operating system installed,
// and the configuration actions that have already been performed."
//
// On disk (inside an ArtifactStore, which in the simulated cluster lives on
// the NFS server):
//   <base>/<image-id>/machine.cfg, memory.vmss, disk spans, redo, guest.state
//   <base>/<image-id>/descriptor.xml
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "hypervisor/guest.h"
#include "storage/artifact_store.h"
#include "storage/image_layout.h"
#include "util/error.h"

namespace vmp::warehouse {

struct GoldenImage {
  std::string id;
  std::string backend;  // production line: "vmware-gsx", "uml"
  storage::ImageLayout layout;
  storage::MachineSpec spec;
  hv::GuestState guest;
  /// Action signatures already performed, oldest first (the history the
  /// PPP's three matching tests run against).
  std::vector<std::string> performed;
};

/// Serialize/parse descriptor.xml.
std::string render_descriptor(const GoldenImage& image);
util::Result<GoldenImage> parse_descriptor(const std::string& xml_text);

// -- Action-multiset summaries ----------------------------------------------
// Two 64-bit digests over a signature list let the PPP prune candidates
// without touching the DAG machinery (DESIGN.md §10):
//
/// Bloom-style membership mask: 3 bits per signature.  If a golden image's
/// mask has any bit outside the request's mask, some performed signature is
/// not a request node and the Subset test MUST fail — so the image can be
/// rejected without evaluating it.  (The converse does not hold; survivors
/// still run the full tests.)
std::uint64_t action_mask(const std::vector<std::string>& signatures);

/// Order-insensitive multiset fingerprint (wrapping sum of per-signature
/// hashes, so duplicates count).  Equal multisets always have equal
/// fingerprints; a full match — golden history covering every request node —
/// implies fingerprint equality with the request, which lets the PPP probe
/// fingerprint-equal candidates first and stop at the first full match.
std::uint64_t action_fingerprint(const std::vector<std::string>& signatures);

/// Lightweight view of one hardware- and mask-passing image: exactly what
/// the PPP's DAG tests consume.  The scan used to copy full GoldenImage
/// objects (layout + spec + guest state) per candidate on every production
/// order; only the winning image is fetched in full, by id, after ranking.
/// The history is shared with the warehouse index, never copied: `history`
/// keeps it alive, so a view stays valid after its image is detached,
/// removed or replaced.
struct CandidateView {
  std::string id;
  /// The indexed image's immutable history.
  std::shared_ptr<const std::vector<std::string>> history;
  /// Action signatures already performed (the DAG tests' input): *history.
  std::span<const std::string> performed;
  /// Precomputed performed-multiset fingerprint.
  std::uint64_t fingerprint = 0;
};

/// Result of the warehouse-side candidate scan for one production order.
struct CandidateSet {
  /// Hardware- and mask-passing images, id order.
  std::vector<CandidateView> candidates;
  /// How many images passed the hardware filter (before mask pruning).
  std::size_t hardware_candidates = 0;
  /// Hardware-passing images pruned by the mask (guaranteed Subset fails).
  std::size_t mask_rejected = 0;
};

class Warehouse {
 public:
  /// `base_dir` is the store-relative warehouse root (e.g. "warehouse").
  Warehouse(storage::ArtifactStore* store, std::string base_dir);

  /// Publish a golden image: materialize its artefacts and descriptor.
  /// Fails if the id is taken.
  util::Status publish(const GoldenImage& image);

  /// Publish by materializing from scratch (helper: builds layout from id).
  util::Result<GoldenImage> publish_new(
      const std::string& id, const std::string& backend,
      const storage::MachineSpec& spec, const hv::GuestState& guest,
      const std::vector<std::string>& performed);

  util::Result<GoldenImage> lookup(const std::string& id) const;
  bool contains(const std::string& id) const;
  /// True when the id is taken at all, INCLUDING a mid-publish placeholder
  /// claim that contains() hides.  The lifecycle orphan reaper checks this
  /// before sweeping a descriptor-less directory, so a publish that is
  /// still materializing its artefacts is never mistaken for debris.
  bool claimed(const std::string& id) const;
  util::Status remove(const std::string& id);

  /// Remove an image from the index WITHOUT touching its on-disk tree, and
  /// return it.  This is the lifecycle manager's eviction primitive: a
  /// detached image is invisible to lookup/match (so the PPP can never plan
  /// against it) while its artefacts stay on disk for clones still holding
  /// leases on them (lifecycle/lifecycle.h).
  util::Result<GoldenImage> detach(const std::string& id);

  /// Inverse of detach: re-insert a previously detached image into the
  /// index WITHOUT touching its on-disk tree.  The lifecycle manager's
  /// eviction rollback — when zombifying fails mid-way (descriptor still
  /// on disk) the image must become visible again.  Fails with
  /// kAlreadyExists if the id is taken, including a mid-publish claim.
  util::Status attach(GoldenImage image);

  /// All images (id-ordered); optionally filtered by backend.
  std::vector<GoldenImage> list() const;
  std::vector<GoldenImage> list_backend(const std::string& backend) const;

  /// One-pass candidate scan for the PPP: backend filter, then the caller's
  /// hardware predicate (counted), then the precomputed action-mask prune.
  /// The predicate sees the image without its history (`performed` is
  /// empty); the history reaches the caller through CandidateView.
  /// Runs under a shared lock, so concurrent production orders scan in
  /// parallel and only publish/remove/rescan serialize them.
  /// `request_mask` of ~0 disables mask pruning (every image passes).
  CandidateSet match_candidates(
      const std::string& backend,
      const std::function<bool(const GoldenImage&)>& hardware_ok,
      std::uint64_t request_mask) const;

  /// Rebuild the in-memory index from descriptor.xml files on disk
  /// (service restoration after a failure — the paper's VMShop keeps no
  /// durable state; the warehouse's durable state *is* the disk).
  util::Status rescan();

  std::size_t size() const;
  const std::string& base_dir() const { return base_dir_; }
  storage::ArtifactStore* store() { return store_; }

 private:
  /// An image plus its precomputed digests, kept in lockstep by every
  /// mutation path (publish / remove / rescan).  The history is held once,
  /// shared and immutable, so candidate scans hand it out without a copy;
  /// `image.performed` stays empty.
  struct IndexedImage {
    GoldenImage image;
    std::shared_ptr<const std::vector<std::string>> performed;
    std::uint64_t mask = 0;
    std::uint64_t fingerprint = 0;

    /// The image with its history.
    GoldenImage full() const;
  };
  static IndexedImage index_image(GoldenImage image);

  std::string dir_for(const std::string& id) const;

  /// Readers (lookup/contains/list/match_candidates/size) share; mutators
  /// take it exclusively.  Publish materializes its artefacts BEFORE taking
  /// the exclusive lock — the image directory is private until the index
  /// insert — so readers only ever block for the map insert itself.
  mutable std::shared_mutex mutex_;
  storage::ArtifactStore* store_;
  std::string base_dir_;
  std::map<std::string, IndexedImage> images_;
};

}  // namespace vmp::warehouse
