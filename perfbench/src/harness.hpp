// Shared plumbing of the evord benchmark: run configuration, sample
// statistics, the in-memory span recorder, the result line, and the
// evordd child process every workload talks to.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/client.hpp"

namespace evbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's own smoke test.
  bool smoke = false;
  /// Flip one reference answer so the smoke test can prove the
  /// correctness gate fires.
  bool corrupt_reference = false;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Median of a small sample (used for repeated set-up timings).
double median(std::vector<double> values);

/// "pair_p50_us=35.6 us pair_p99_us=59.7 us (n=107344, 1073 beyond p99)"
/// for latencies given in ms, reported in `unit` ("us" or "ms").
std::string describe_latency(const std::string& prefix,
                             const std::vector<double>& ms, double tail_q,
                             const std::string& unit);

// ------------------------------------------------------------------ spans

/// One timed call into a layer.  `parent` indexes the enclosing span in
/// the same recorder (-1 for a root); spans of one request share
/// `request_id`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request_id = 0;
};

/// Single-threaded span recorder; a disabled recorder records nothing.
/// Threads each own one and the results are merged with absorb().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  Scope span(const char* name, std::uint64_t request_id = 0) {
    return Scope(enabled_ ? this : nullptr, name, request_id);
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends another recorder's spans, re-basing their parent indices.
  void absorb(const Tracer& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time covered by child spans
};
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans);
/// Writes one JSON object per span to `path` (best effort).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0; }
};

/// Human-readable report line (stdout, before the result line).
void note(const std::string& line);
/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(const Result& result);

// ---------------------------------------------------------------- daemon

/// An evordd child process serving a Unix-domain socket under the
/// benchmark's build directory, with the daemon's default options.
/// The destructor drains it (SIGTERM) and reaps it.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& tag);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  /// Peak resident set of the daemon so far (VmHWM), in MB.
  double peak_rss_mb() const;
  void stop();

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

evord::daemon::ClientOptions client_options(const DaemonProcess& daemon,
                                            const std::string& tenant,
                                            std::uint64_t seed);

}  // namespace evbench
