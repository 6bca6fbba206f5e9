// Host plumbing: CPU sets and pinning, /proc counters (steal, process
// CPU time, peak RSS), and the pmonge-serve child process the TCP
// workloads drive.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rpc/client.hpp"
#include "serve/json.hpp"

namespace perfbench {

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Pin the calling thread (and the threads it creates later) to `cpus`.
/// An empty set leaves the affinity alone.
void pin_self(const std::vector<int>& cpus);

/// "0-1" / "2,3" style label of a CPU set.
std::string cpu_label(const std::vector<int>& cpus);

/// Hypervisor steal of `cpus` so far, in milliseconds (/proc/stat).
double steal_ms(const std::vector<int>& cpus);

/// User + system CPU time of process `pid` so far, in microseconds
/// (/proc/<pid>/stat, clock-tick resolution).
double process_cpu_us(pid_t pid);

/// Peak resident set (VmHWM) of process `pid`, in MiB.
double peak_rss_mib(pid_t pid);

/// Keeps `cpus` from halting while the program on them waits for work:
/// one SCHED_IDLE thread per CPU spins until destruction.  Any runnable
/// thread of normal policy preempts it at once, so it takes no CPU time
/// from the program; it only spares each wake-up the hypervisor's
/// halt/resume latency, which a virtual machine books as steal.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // after stop_: they read it
};

/// A `pmonge-serve --listen 127.0.0.1:0` child, pinned to `cpus` with
/// `lanes` exec lanes.  The constructor returns once the server announced
/// its port; the destructor stops it (SIGTERM, graceful drain, wait).
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<int>& cpus,
                std::size_t lanes, bool traced);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  void stop();

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;  // the child's stderr
  std::uint16_t port_ = 0;
};

/// One control request over a blocking client; throws std::runtime_error
/// unless the response says ok, returning its "result" member.
pmonge::serve::Json control(pmonge::rpc::Client& client, const std::string& line);

/// Integer at a '/'-separated path of a stats document (0 when absent).
double stat_at(const pmonge::serve::Json& doc, const std::string& path);

}  // namespace perfbench
