#include "harness.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace evbench {

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

std::string describe_latency(const std::string& prefix,
                             const std::vector<double>& ms, double tail_q,
                             const std::string& unit) {
  const double scale = unit == "us" ? 1e3 : 1.0;
  const int tail = static_cast<int>(std::lround(tail_q * 100));
  const auto beyond = static_cast<std::size_t>(
      std::floor((1.0 - tail_q) * static_cast<double>(ms.size())));
  std::ostringstream os;
  os << prefix << "_p50_" << unit << '=' << percentile(ms, 0.5) * scale << ' '
     << unit << ' ' << prefix << "_p" << tail << '_' << unit << '='
     << percentile(ms, tail_q) * scale << ' ' << unit << " (n=" << ms.size()
     << ", " << beyond << " beyond p" << tail
     << (beyond < 10 ? ", FEWER THAN 10" : "") << ')';
  return os.str();
}

// ------------------------------------------------------------------ spans

Tracer::Scope::Scope(Tracer* tracer, const char* name,
                     std::uint64_t request_id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<std::int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, now_ns(), 0, tracer_->open_, request_id});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_->open_ = span.parent;
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    SelfTime& t = out[spans[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
        << "}\n";
  }
}

// ----------------------------------------------------------------- result

void note(const std::string& line) { std::cout << "# " << line << '\n'; }

void print_result(const Result& result) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (result.correct() ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------- daemon

namespace {

bool socket_accepts(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& tag)
    // Relative to the checkout root (the working directory run.py sets),
    // which keeps the path inside the checkout and under sun_path's limit.
    : socket_path_(".bench_build/evbench-" + std::to_string(::getpid()) + "-" +
                   tag + ".sock") {
  ::unlink(socket_path_.c_str());
  std::string program = EVBENCH_EVORDD_PATH;
  std::string flag = "--socket";
  char* argv[] = {program.data(), flag.data(), socket_path_.data(), nullptr};
  if (::posix_spawn(&pid_, program.c_str(), nullptr, nullptr, argv, environ) !=
      0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + program);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (!socket_accepts(socket_path_)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("evordd exited during start-up");
    }
    if (Clock::now() > deadline) {
      stop();
      throw std::runtime_error("evordd did not start listening");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

DaemonProcess::~DaemonProcess() { stop(); }

double DaemonProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // reported in KiB
    }
  }
  return 0.0;
}

void DaemonProcess::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

evord::daemon::ClientOptions client_options(const DaemonProcess& daemon,
                                            const std::string& tenant,
                                            std::uint64_t seed) {
  evord::daemon::ClientOptions options;
  options.socket_path = daemon.socket_path();
  options.tenant = tenant;
  // Anytime queries on the large traces run for seconds; a receive
  // timeout must not turn a slow answer into a transport failure.
  options.timeout_ms = 120'000;
  options.seed = seed;
  return options;
}

}  // namespace evbench
