#include "storage/clone_ops.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vmp::storage {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// Linked vs full-copy latency split (paper Figure 5: full copies are the
/// 210-second baseline, linked clones the optimisation being measured).
struct CloneMetrics {
  obs::Counter* linked;
  obs::Counter* full;
  obs::Counter* failures;
  obs::Timer* linked_seconds;
  obs::Timer* full_seconds;

  static CloneMetrics& get() {
    static CloneMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return CloneMetrics{r.counter("storage.clone_linked.count"),
                          r.counter("storage.clone_full.count"),
                          r.counter("storage.clone_fail.count"),
                          r.timer("storage.clone_linked.seconds"),
                          r.timer("storage.clone_full.seconds")};
    }();
    return m;
  }
};

}  // namespace

const char* clone_strategy_name(CloneStrategy strategy) noexcept {
  switch (strategy) {
    case CloneStrategy::kLinked: return "linked";
    case CloneStrategy::kFullCopy: return "full-copy";
  }
  return "linked";
}

IoAccounting CloneReport::total() const {
  IoAccounting out;
  out += config;
  out += memory;
  out += disk;
  out += redo;
  return out;
}

static Result<CloneReport> clone_image_impl(ArtifactStore* store,
                                            const ImageLayout& golden,
                                            const MachineSpec& spec,
                                            const std::string& clone_dir,
                                            CloneStrategy strategy) {
  if (strategy == CloneStrategy::kLinked &&
      spec.disk.mode == DiskMode::kPersistent) {
    return Result<CloneReport>(Error(
        ErrorCode::kFailedPrecondition,
        "linked clone requires a non-persistent disk; golden image '" +
            golden.dir + "' is persistent"));
  }
  if (store->exists(clone_dir)) {
    return Result<CloneReport>(
        Error(ErrorCode::kAlreadyExists, "clone dir exists: " + clone_dir));
  }
  VMP_RETURN_IF_ERROR_AS(store->make_dir(clone_dir), CloneReport);

  // A failed artefact copy (disk full, injected store.write fault, ...)
  // must not leave a half-written clone directory behind: the partial tree
  // is removed before the error propagates, so a retry or a failover to
  // another plant starts from a clean slate.
  auto abort_clone = [&](const Error& error) {
    (void)store->remove_tree(clone_dir);
    return Result<CloneReport>(error);
  };

  const ImageLayout clone{clone_dir};
  CloneReport report;

  // Config file is always replicated (it is tiny and per-clone mutable).
  auto cfg = store->copy_file(golden.config_path(), clone.config_path());
  if (!cfg.ok()) return abort_clone(cfg.error());
  report.config = cfg.value();

  // Memory state: VMware GSX requires the .vmss to be a private copy
  // (paper footnote 2) — this is the size-proportional cost of cloning.
  if (spec.suspended) {
    auto mem = store->copy_file(golden.memory_path(), clone.memory_path());
    if (!mem.ok()) return abort_clone(mem.error());
    report.memory = mem.value();
  }

  // Disk spans: links (cheap) or copies (the 210-second baseline).
  const auto golden_spans = golden.span_paths(spec.disk);
  const auto clone_spans = clone.span_paths(spec.disk);
  for (std::size_t i = 0; i < golden_spans.size(); ++i) {
    auto op = strategy == CloneStrategy::kLinked
                  ? store->link_file(golden_spans[i], clone_spans[i])
                  : store->copy_file(golden_spans[i], clone_spans[i]);
    if (!op.ok()) return abort_clone(op.error());
    report.disk += op.value();
  }

  // Base redo log is replicated so the clone starts from the golden state's
  // committed view.
  auto redo = store->copy_file(golden.base_redo_path(spec.disk),
                               clone.base_redo_path(spec.disk));
  if (!redo.ok()) return abort_clone(redo.error());
  report.redo = redo.value();

  return report;
}

Result<CloneReport> clone_image(ArtifactStore* store,
                                const ImageLayout& golden,
                                const MachineSpec& spec,
                                const std::string& clone_dir,
                                CloneStrategy strategy) {
  CloneMetrics& metrics = CloneMetrics::get();
  obs::ScopedSpan span("storage.clone", "storage", obs::TraceContext{}, [&] {
    return std::string(clone_strategy_name(strategy)) + " " + clone_dir;
  });
  const auto start = std::chrono::steady_clock::now();

  auto result = clone_image_impl(store, golden, spec, clone_dir, strategy);

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (strategy == CloneStrategy::kLinked) {
    metrics.linked->add();
    metrics.linked_seconds->record(elapsed);
  } else {
    metrics.full->add();
    metrics.full_seconds->record(elapsed);
  }
  if (!result.ok()) {
    metrics.failures->add();
    span.set_status(util::error_code_name(result.error().code()));
  }
  return result;
}

Result<IoAccounting> destroy_clone(ArtifactStore* store,
                                   const std::string& clone_dir) {
  if (!store->exists(clone_dir)) {
    return Result<IoAccounting>(
        Error(ErrorCode::kNotFound, "clone dir missing: " + clone_dir));
  }
  return store->remove_tree(clone_dir, ImageLayout::kMemoryFile);
}

}  // namespace vmp::storage
