#include "sys.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

using pmonge::serve::Json;

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
}

std::string cpu_label(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ",";
    out += std::to_string(cpus[i]);
    if (j > i) out += "-" + std::to_string(cpus[j]);
    i = j;
  }
  return out.empty() ? "all" : out;
}

double steal_ms(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  double ticks = 0;
  while (std::getline(in, line)) {
    if (!line.starts_with("cpu") || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream ss(line.substr(3));
    int cpu = -1;
    ss >> cpu;
    bool wanted = cpus.empty();
    for (const int c : cpus) wanted = wanted || c == cpu;
    if (!wanted) continue;
    double v[8] = {};
    for (double& x : v) ss >> x;
    ticks += v[7];  // user nice system idle iowait irq softirq steal
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_cpu_us(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream ss(text.substr(close + 1));
  std::string tok;
  double utime = 0;
  double stime = 0;
  // Fields 3.. follow the command name; utime and stime are fields 14, 15.
  for (int field = 3; field <= 15 && ss >> tok; ++field) {
    if (field == 14) utime = std::stod(tok);
    if (field == 15) stime = std::stod(tok);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      // A spinner that cannot be both pinned and idle-policy would compete
      // with the program; it quits instead.
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      const sched_param none{};
      if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0 ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &none) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

// ---------------------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<int>& cpus, std::size_t lanes,
                             bool traced) {
  // Everything the child needs is built before fork(): between fork and
  // exec it only makes async-signal-safe calls.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.starts_with("PMONGE_")) continue;  // the benchmark sets its own knobs
    env.emplace_back(kv);
  }
  env.push_back("PMONGE_THREADS=" + std::to_string(lanes));
  if (traced) {
    env.push_back("PMONGE_TRACE=1");
    env.push_back("PMONGE_TRACE_BUF=131072");
  }
  std::vector<char*> envp;
  for (std::string& kv : env) envp.push_back(kv.data());
  envp.push_back(nullptr);
  std::string arg0 = binary;
  std::string arg1 = "--listen";
  std::string arg2 = "127.0.0.1:0";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);

  int pfd[2];
  if (pipe2(pfd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  pid_ = fork();
  if (pid_ < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    if (!cpus.empty()) sched_setaffinity(0, sizeof(set), &set);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, 0);
    ::dup2(devnull, 1);
    ::dup2(pfd[1], 2);
    ::execve(argv[0], argv, envp.data());
    _exit(127);
  }
  ::close(pfd[1]);
  err_fd_ = pfd[0];

  // Wait for "pmonge-serve: listening on HOST:PORT".
  std::string seen;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{err_fd_, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) break;
    char buf[4096];
    const ssize_t k = ::read(err_fd_, buf, sizeof(buf));
    if (k <= 0) break;
    seen.append(buf, static_cast<std::size_t>(k));
    const std::size_t at = seen.find("listening on ");
    const std::size_t eol = at == std::string::npos ? at : seen.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = seen.rfind(':', eol);
      port_ = static_cast<std::uint16_t>(std::stoi(seen.substr(colon + 1, eol - colon - 1)));
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("pmonge-serve did not announce a port: " + seen);
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  // Keep draining its stderr (the drain summary) so it never blocks on a
  // full pipe, and escalate if the graceful drain overstays.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    pollfd p{err_fd_, POLLIN, 0};
    if (err_fd_ >= 0 && ::poll(&p, 1, 20) > 0) {
      char buf[4096];
      if (::read(err_fd_, buf, sizeof(buf)) <= 0) {
        ::close(err_fd_);
        err_fd_ = -1;
      }
    } else if (err_fd_ < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  pid_ = -1;
}

Json control(pmonge::rpc::Client& client, const std::string& line) {
  const std::string resp = client.request(line);
  Json doc = Json::parse(resp);
  const Json* ok = doc.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    throw std::runtime_error("control request failed: " + line + " -> " +
                             resp.substr(0, 300));
  }
  return doc.at("result");
}

double stat_at(const Json& doc, const std::string& path) {
  const Json* node = &doc;
  std::size_t pos = 0;
  while (node != nullptr && pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    node = node->find(path.substr(pos, slash - pos));
    pos = slash + 1;
  }
  return node != nullptr && node->is_number() ? node->as_double() : 0;
}

}  // namespace perfbench
