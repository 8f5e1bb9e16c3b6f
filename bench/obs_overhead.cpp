// Overhead of the observability plane on production paths.
//
// The tracer's disarmed cost is one relaxed atomic load per ScopedSpan —
// the contract that lets every hot path stay instrumented all the time.
// Measured so regressions in the "nobody is tracing" path show up:
//   1. ScopedSpan construct+destruct, tracer disarmed  (budget: <= 5 ns/op)
//   2. ScopedSpan construct+destruct, tracer armed     (reported, not bounded)
//      and the same loop with the TailSampler armed on top (budget: <= 2x
//      the armed baseline measured in the same run — DESIGN.md §14)
//   3. Counter::add and Timer::record (always-on metrics)
//   4. LogHistogram::record — the always-on quantile path every Timer pays
//      (budget: <= 15 ns/op: an index read off the IEEE-754 bits, one
//      acquire load of the octave's page, one relaxed fetch_add); the bytes
//      a Timer holds after 1,000 samples inside one octave (budget:
//      <= 4096 B: 17 moment shards plus one histogram page); and one
//      MetricsRegistry::snapshot of 256 single-octave plant timers plus 40
//      process-wide ones, flat_bidding's shape (budget: <= 0.5 ms)
//   5. Journal::append, ring-only (the always-armed flight recorder every
//      lifecycle transition pays: one mutex + a slot write; budget:
//      <= 250 ns/op) and with a durable segment sink open (buffered
//      fwrite, no per-append flush; budget: <= 2500 ns/op)
//   6. MessageBus::call round-trip, disarmed vs armed
//
// Besides the human-readable table, every measurement emits one
// machine-readable line:
//   BENCH_JSON {"name": "...", "ns_per_op": 3.21, "budget_ns": 5.0}
// ("budget_ns": null when unbounded; the footprint row reports "bytes" and
// "budget_bytes") so CI can grep and gate on budgets.
// Any budgeted row over budget also makes the process EXIT NON-ZERO — the
// binary gates itself; CI's `! grep 'OVER BUDGET'` is belt-and-braces.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "net/bus.h"
#include "obs/histogram.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tail.h"
#include "obs/trace.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Any budgeted row exceeded its budget (the process exits non-zero, so
/// the gate holds even where the CI-side `! grep 'OVER BUDGET'` is absent).
bool g_over_budget = false;

/// Print the aligned human line plus the BENCH_JSON line.  budget_ns < 0
/// means unbounded.
void report(const char* name, double ns_per_op, double budget_ns) {
  if (budget_ns >= 0.0) {
    if (ns_per_op > budget_ns) g_over_budget = true;
    std::printf("%-21s: %8.2f ns/op %s\n", name, ns_per_op,
                ns_per_op <= budget_ns ? "(within budget)"
                                       : "(OVER BUDGET!)");
    std::printf("BENCH_JSON {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                "\"budget_ns\": %.1f}\n",
                name, ns_per_op, budget_ns);
  } else {
    std::printf("%-21s: %8.2f ns/op\n", name, ns_per_op);
    std::printf("BENCH_JSON {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                "\"budget_ns\": null}\n",
                name, ns_per_op);
  }
}

/// report() for a size in bytes.
void report_bytes(const char* name, std::size_t bytes, std::size_t budget) {
  if (bytes > budget) g_over_budget = true;
  std::printf("%-21s: %8zu bytes %s\n", name, bytes,
              bytes <= budget ? "(within budget)" : "(OVER BUDGET!)");
  std::printf("BENCH_JSON {\"name\": \"%s\", \"bytes\": %zu, "
              "\"budget_bytes\": %zu}\n",
              name, bytes, budget);
}

}  // namespace

int main() {
  using namespace vmp;
  bench::print_header(
      "observability overhead — cost of spans and metrics on hot paths",
      "disarmed ScopedSpan is one relaxed atomic load (<= 5 ns/op); "
      "counters and the log-linear histogram are relaxed atomics and stay "
      "armed always (histogram record <= 15 ns/op)");

  constexpr int kSpanIters = 2'000'000;
  constexpr int kMetricIters = 2'000'000;
  constexpr int kCallIters = 20'000;

  obs::Tracer& tracer = obs::Tracer::instance();

  tracer.disarm();
  {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpanIters; ++i) {
      obs::ScopedSpan span("bench.noop", "bench");
    }
    report("span disarmed", seconds_since(start) * 1e9 / kSpanIters, 5.0);
  }

  double armed_ns = 0.0;
  tracer.arm();
  {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpanIters / 20; ++i) {
      obs::ScopedSpan span("bench.noop", "bench");
    }
    armed_ns = seconds_since(start) * 1e9 / (kSpanIters / 20);
    report("span armed", armed_ns, -1.0);
  }
  {
    // Tail sampling on top of the armed tracer: every root span completion
    // now also pays the root-sink hand-off, the reservoir insert, and the
    // quantile check; the rare retained tail pays extraction plus
    // critical-path attribution.  Budgeted RELATIVE to the armed baseline
    // just measured (<= 2x), so the gate tracks the machine, not a fixed
    // nanosecond count.
    // Drop the spans the baseline loop accumulated: extract_trace is
    // O(tracer buffer), and with the sampler armed the buffer self-drains
    // (every decided trace is extracted), so steady state starts empty.
    tracer.clear();
    obs::TailSampler::instance().arm(obs::TailSamplerConfig{});
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpanIters / 20; ++i) {
      obs::ScopedSpan span("bench.noop", "bench");
    }
    report("span armed + tail",
           seconds_since(start) * 1e9 / (kSpanIters / 20), 2.0 * armed_ns);
    // CI forensics hook: when the gate runner sets VMP_TAIL_EXEMPLAR_DIR,
    // leave the retained slow-tail exemplars on disk so a failed gate run
    // uploads the traces that explain its own regression.
    if (const char* dir = std::getenv("VMP_TAIL_EXEMPLAR_DIR")) {
      const std::size_t written = obs::TailSampler::instance().dump(dir);
      std::printf("tail exemplars      : %zu dumped to %s\n", written, dir);
    }
    obs::TailSampler::instance().disarm();
  }
  tracer.disarm();

  {
    obs::Counter* c = obs::MetricsRegistry::instance().counter("bench.count");
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kMetricIters; ++i) c->add();
    report("counter add", seconds_since(start) * 1e9 / kMetricIters, -1.0);
  }
  {
    // The always-on quantile path: one log-linear bucket index plus one
    // relaxed fetch_add.  Values vary so the bucket computation cannot be
    // hoisted.
    obs::LogHistogram hist;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kMetricIters; ++i) {
      hist.record(1e-6 * static_cast<double>((i & 1023) + 1));
    }
    report("histogram record", seconds_since(start) * 1e9 / kMetricIters,
           15.0);
    if (hist.total() != static_cast<std::uint64_t>(kMetricIters)) {
      std::printf("histogram miscounted!\n");
      return 1;
    }
  }
  {
    obs::Timer* t = obs::MetricsRegistry::instance().timer("bench.seconds");
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kMetricIters; ++i) t->record(1e-6);
    report("timer record", seconds_since(start) * 1e9 / kMetricIters, -1.0);
  }
  {
    // What a Timer holds once it has seen a latency site's usual spread:
    // samples inside one octave touch one histogram page.
    obs::Timer timer;
    for (int i = 0; i < 1000; ++i) timer.record(0.008 * (1.0 + i / 2000.0));
    report_bytes("timer footprint", timer.footprint_bytes(), 4096);
  }
  {
    // flat_bidding's registry: one create timer per plant, each inside one
    // octave, plus the process-wide timers, whose samples span three.
    obs::MetricsRegistry registry;
    for (int p = 0; p < 256; ++p) {
      obs::Timer* t = registry.timer("plant" + std::to_string(p) +
                                     ".create.seconds");
      for (int i = 0; i < 64; ++i) t->record(0.004 * (1.0 + i / 128.0));
    }
    for (int k = 0; k < 40; ++k) {
      obs::Timer* t = registry.timer("process" + std::to_string(k) +
                                     ".seconds");
      for (int i = 0; i < 64; ++i) t->record(1e-4 * (1.0 + i / 20.0));
    }
    constexpr int kSnapshots = 200;
    std::size_t timers = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSnapshots; ++i) {
      timers += registry.snapshot().timers.size();
    }
    report("registry snapshot (296 timers)",
           seconds_since(start) * 1e9 / kSnapshots, 500'000.0);
    if (timers != 296u * kSnapshots) {
      std::printf("registry snapshot miscounted!\n");
      return 1;
    }
  }

  // The lifecycle event journal: every transition pays the ring append
  // (mutex + slot write + a short image-id copy); a run with a durable sink
  // open adds one encode + buffered fwrite per append (flushed on rotation
  // and close, not per record).
  constexpr int kJournalIters = 500'000;
  {
    obs::Journal journal;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kJournalIters; ++i) {
      journal.append(obs::JournalEvent::kLeaseAcquire, "bench-image-000",
                     0, static_cast<std::uint64_t>(i));
    }
    report("journal ring append",
           seconds_since(start) * 1e9 / kJournalIters, 250.0);
    if (journal.appended() != static_cast<std::uint64_t>(kJournalIters)) {
      std::printf("journal miscounted!\n");
      return 1;
    }
  }
  {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "vmp_bench_obs_journal";
    std::error_code ec;
    fs::remove_all(dir, ec);
    obs::Journal journal;
    if (!journal.open_durable(dir).ok()) {
      std::printf("journal open_durable failed!\n");
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kJournalIters; ++i) {
      journal.append(obs::JournalEvent::kLeaseAcquire, "bench-image-000",
                     0, static_cast<std::uint64_t>(i));
    }
    report("journal durable append",
           seconds_since(start) * 1e9 / kJournalIters, 2500.0);
    journal.close_durable();
    fs::remove_all(dir, ec);
  }

  // A full bus round-trip with a trivial echo handler, disarmed vs armed.
  net::MessageBus bus;
  (void)bus.register_endpoint("echo", [](const net::Message& m) {
    return net::Message::response_to(m);
  });
  const auto call_sweep = [&](const char* label) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kCallIters; ++i) {
      std::string correlation(1, 'c');  // appended: GCC 12 -Wrestrict at -O3
      correlation += std::to_string(i);
      net::Message m = net::Message::request("echo.ping", "bench", "echo",
                                             std::move(correlation));
      (void)bus.call(m);
    }
    const double ns = seconds_since(begin) * 1e9 / kCallIters;
    std::printf("%-21s: %8.2f us/call\n", label, ns / 1e3);
    std::printf("BENCH_JSON {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                "\"budget_ns\": null}\n",
                label, ns);
  };
  call_sweep("bus.call disarmed");
  tracer.arm();
  call_sweep("bus.call armed");
  tracer.disarm();

  if (g_over_budget) {
    std::printf("FAILED: at least one budgeted path is OVER BUDGET\n");
    return 1;
  }
  return 0;
}
