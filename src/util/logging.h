// Minimal thread-safe structured logger.
//
// Services in this repo (VMShop, VMPlant daemons, the simulated cluster) run
// on multiple threads; the logger serializes lines and tags them with a
// component name, mirroring the per-daemon logs of the original prototype.
//
// Lines carry wall-time (seconds since the first log call) and, when a
// sim-time clock is installed (set_log_clock), virtual time too.  The
// default stderr format stays "[level] component: message" with no clock
// installed; sinks (set_log_sink) receive the full record — tests capture
// lines with them, and the tracer mirrors span-end events through here.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

namespace vmp::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; defaults to kWarn so tests and benches stay quiet.
void set_log_level(LogLevel level);
LogLevel log_level();

/// One emitted line, as handed to sinks.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
  double wall_time_s = 0.0;  // seconds since the first log call
  double sim_time_s = -1.0;  // virtual seconds; < 0 when no clock installed
};

/// Replace the stderr writer with `sink` (nullptr restores stderr).  The
/// sink runs under the logger's mutex: records arrive serialized.
using LogSink = std::function<void(const LogRecord&)>;
void set_log_sink(LogSink sink);

/// Install a sim-time source stamped onto every record (e.g. the DES
/// clock).  nullptr removes it.  With a clock installed, the stderr format
/// becomes "[level] t=<sim> component: message".
void set_log_clock(std::function<double()> clock);

/// Emit one line: "[level] component: message".  Thread-safe.
void log_line(LogLevel level, const std::string& component,
              const std::string& message);

/// Stream-style helper: Logger("vmshop").info() << "bid won by " << plant;
class Logger {
 public:
  explicit Logger(std::string component) : component_(std::move(component)) {}

  class Line {
   public:
    // An active line holds the component by value: a Line can outlive the
    // temporary Logger that minted it.  A line below the level holds
    // nothing and streams nothing: no copy, no stream, no operator<<.
    Line(LogLevel level, const std::string& component) : level_(level) {
      if (level >= log_level()) active_.emplace(component);
    }
    Line(const Line&) = delete;
    Line& operator=(const Line&) = delete;
    ~Line() {
      if (active_) log_line(level_, active_->component, active_->stream.str());
    }
    template <typename T>
    Line& operator<<(const T& v) {
      if (active_) active_->stream << v;
      return *this;
    }

   private:
    struct Active {
      std::string component;
      std::ostringstream stream;
    };
    LogLevel level_;
    std::optional<Active> active_;
  };

  Line debug() const { return Line(LogLevel::kDebug, component_); }
  Line info() const { return Line(LogLevel::kInfo, component_); }
  Line warn() const { return Line(LogLevel::kWarn, component_); }
  Line error() const { return Line(LogLevel::kError, component_); }

  const std::string& component() const { return component_; }

 private:
  std::string component_;
};

}  // namespace vmp::util
