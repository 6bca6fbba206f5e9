#include "tcp_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace perfbench {

// Both loops busy-poll with zero timeouts instead of sleeping: the
// generator owns its pinned CPUs, and on a virtual machine a vCPU that
// halts pays the hypervisor's wake-up latency (booked as steal) on every
// response and every due burst.  Sleeping generators measured 4-5 s of
// steal per 10-s run and moved hot_hits throughput by +-40%.
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kDrainNs = 10'000'000'000ULL;  // answer deadline after the last send

/// Write as much of conn.outbuf as the socket takes; false on EAGAIN
/// with bytes left over.
bool flush(LoopConn& conn) {
  std::size_t done = 0;
  bool all = true;
  while (done < conn.outbuf.size()) {
    const ssize_t k = ::send(conn.fd(), conn.outbuf.data() + done,
                             conn.outbuf.size() - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (k > 0) {
      done += static_cast<std::size_t>(k);
    } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      all = false;
      break;
    } else if (k < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
  }
  conn.outbuf.erase(0, done);
  return all;
}

/// One recv into the framer; false when nothing was read.
bool read_some(LoopConn& conn) {
  char buf[65536];
  const ssize_t k = ::recv(conn.fd(), buf, sizeof(buf), MSG_DONTWAIT);
  if (k == 0) throw std::runtime_error("server closed a connection mid-run");
  if (k < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return false;
    throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
  }
  conn.framer.feed(buf, static_cast<std::size_t>(k));
  return true;
}

struct EpollFd {
  int fd = ::epoll_create1(EPOLL_CLOEXEC);
  ~EpollFd() { ::close(fd); }
};

}  // namespace

LoopConn::LoopConn(std::uint16_t port) : client("127.0.0.1", port) {
  const int flags = ::fcntl(client.fd(), F_GETFL, 0);
  ::fcntl(client.fd(), F_SETFL, flags | O_NONBLOCK);
}

PhaseResult closed_loop(Conns& conns,
                        const std::vector<std::vector<std::string>>& lines,
                        const std::vector<std::vector<std::string>>& expected,
                        std::size_t depth, double seconds) {
  const std::size_t n = conns.size();
  // Each cycle twice over, so any run of <= L consecutive lines is one
  // contiguous slice: queueing k requests is one append.
  struct Cycle {
    std::string joined;
    std::vector<std::size_t> off;
    std::vector<std::uint64_t> sent_at;
  };
  std::vector<Cycle> cyc(n);
  for (std::size_t c = 0; c < n; ++c) {
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::string& l : lines[c]) {
        cyc[c].off.push_back(cyc[c].joined.size());
        cyc[c].joined += l;
        cyc[c].joined += '\n';
      }
    }
    cyc[c].off.push_back(cyc[c].joined.size());
    cyc[c].sent_at.assign(depth, 0);
  }

  PhaseResult r;
  EpollFd ep;
  std::vector<bool> want_out(n, false);
  for (std::size_t c = 0; c < n; ++c) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep.fd, EPOLL_CTL_ADD, conns[c]->fd(), &ev);
  }
  auto set_out = [&](std::size_t c, bool on) {
    if (want_out[c] == on) return;
    want_out[c] = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(ep.fd, EPOLL_CTL_MOD, conns[c]->fd(), &ev);
  };
  auto queue = [&](std::size_t c, std::size_t k, std::uint64_t now) {
    LoopConn& conn = *conns[c];
    Cycle& cy = cyc[c];
    const std::size_t len = lines[c].size();
    const std::size_t i = conn.sent % len;
    conn.outbuf.append(cy.joined, cy.off[i], cy.off[i + k] - cy.off[i]);
    for (std::size_t j = 0; j < k; ++j) cy.sent_at[(conn.sent + j) % depth] = now;
    conn.sent += k;
    r.tally.sent += k;
    set_out(c, !flush(conn));
  };

  const std::uint64_t t0 = now_ns();
  r.start_ns = t0;
  const auto phase_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t t_end = t0 + phase_ns;
  const auto win_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const std::size_t nwin = std::max<std::size_t>(1, phase_ns / win_ns);
  std::vector<std::uint64_t> counts(nwin, 0);
  for (std::size_t c = 0; c < n; ++c) queue(c, depth, t0);

  std::vector<epoll_event> evs(n);
  std::string line;
  bool sending = true;
  while (true) {
    std::uint64_t now = now_ns();
    if (sending && now >= t_end) sending = false;
    if (!sending) {
      bool idle = true;
      for (const auto& conn : conns) idle = idle && conn->received == conn->sent;
      if (idle) break;
      if (now > t_end + kDrainNs) break;  // the unanswered count as failed
    }
    const int k = ::epoll_wait(ep.fd, evs.data(), static_cast<int>(n), 0);
    for (int e = 0; e < k; ++e) {
      const auto c = static_cast<std::size_t>(evs[e].data.u64);
      LoopConn& conn = *conns[c];
      if ((evs[e].events & EPOLLOUT) != 0u) set_out(c, !flush(conn));
      if ((evs[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0u) continue;
      if (!read_some(conn)) continue;
      now = now_ns();
      std::size_t answered = 0;
      while (conn.framer.next(line) == pmonge::rpc::LineFramer::Result::Line) {
        const std::uint64_t seq = conn.received++;
        const std::uint64_t sent_at = cyc[c].sent_at[seq % depth];
        const Outcome o = classify(line, expected[c][seq % lines[c].size()]);
        r.tally.add(o);
        // Answers drained after the phase end file under its last window.
        r.record(o == Outcome::Ok ? static_cast<double>(now - sent_at) / 1e3 : kInf,
                 std::min(now, t_end - 1));
        if (o == Outcome::Ok && now < t_end) {
          const std::uint64_t w = (now - t0) / win_ns;
          if (w < nwin) ++counts[w];
        }
        ++answered;
      }
      if (sending && answered > 0) queue(c, answered, now);
    }
  }
  for (const auto& conn : conns) {
    const std::uint64_t lost = conn->sent - conn->received;
    r.tally.failed += lost;
    for (std::uint64_t i = 0; i < lost; ++i) r.record(kInf, t_end - 1);
  }
  r.seconds = seconds;
  for (const std::uint64_t cnt : counts) {
    r.window_rate.push_back(static_cast<double>(cnt) / kWindowSeconds);
  }
  return r;
}

PhaseResult open_loop(Conns& conns, const BurstPlan& plan,
                      std::size_t lines_per_burst, std::size_t first,
                      std::size_t last, std::uint64_t base_ns, OpenLoopLog& log) {
  const std::size_t n = conns.size();
  const std::size_t L = lines_per_burst;
  const std::size_t total = plan.lines.size();
  log.responses.resize(total);
  log.due_ns.resize(total, 0);
  log.send_ns.resize(total, 0);
  log.recv_ns.resize(total, 0);

  // Per connection: the bytes of every burst's share, and the order in
  // which its lines will be answered.
  std::vector<std::string> bytes(n);
  std::vector<std::vector<std::size_t>> boff(n);
  std::vector<std::vector<std::size_t>> fifo(n);
  std::vector<std::size_t> head(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t b = first; b < last; ++b) {
      boff[c].push_back(bytes[c].size());
      for (std::size_t k = c; k < L; k += n) {
        bytes[c] += plan.lines[b * L + k];
        bytes[c] += '\n';
        fifo[c].push_back(b * L + k);
      }
    }
    boff[c].push_back(bytes[c].size());
  }
  std::vector<pollfd> pfds(n);
  for (std::size_t c = 0; c < n; ++c) pfds[c] = pollfd{conns[c]->fd(), POLLIN, 0};

  PhaseResult r;
  const std::uint64_t t0 = now_ns();
  r.start_ns = t0;
  std::uint64_t last_recv = t0;
  std::uint64_t drain_deadline = 0;
  std::size_t next = first;
  std::size_t answered = 0;
  const std::size_t expected_answers = (last - first) * L;
  std::string line;
  while (true) {
    std::uint64_t now = now_ns();
    while (next < last) {
      const std::uint64_t due = t0 + (plan.due_ns[next] - base_ns);
      if (now < due) break;
      const std::size_t i = next - first;
      for (std::size_t c = 0; c < n; ++c) {
        conns[c]->outbuf.append(bytes[c], boff[c][i], boff[c][i + 1] - boff[c][i]);
        flush(*conns[c]);
      }
      r.late_us.push_back(static_cast<double>(now - due) / 1e3);
      for (std::size_t k = 0; k < L; ++k) {
        log.due_ns[next * L + k] = due;
        log.send_ns[next * L + k] = now;
      }
      r.tally.sent += L;
      ++next;
      now = now_ns();
    }
    if (next == last) {
      if (answered == expected_answers) break;
      if (drain_deadline == 0) drain_deadline = now + kDrainNs;
      if (now > drain_deadline) break;  // the unanswered score as failed
    }
    for (std::size_t c = 0; c < n; ++c) {
      pfds[c].events = static_cast<short>(POLLIN | (conns[c]->outbuf.empty() ? 0 : POLLOUT));
    }
    if (::poll(pfds.data(), n, 0) <= 0) continue;
    for (std::size_t c = 0; c < n; ++c) {
      LoopConn& conn = *conns[c];
      if ((pfds[c].revents & POLLOUT) != 0) flush(conn);
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_some(conn)) continue;
      const std::uint64_t t = now_ns();
      while (conn.framer.next(line) == pmonge::rpc::LineFramer::Result::Line) {
        if (head[c] >= fifo[c].size()) throw std::runtime_error("unsolicited response");
        const std::size_t idx = fifo[c][head[c]++];
        log.responses[idx] = line;
        log.recv_ns[idx] = t;
        ++answered;
        last_recv = t;
      }
    }
  }
  r.seconds = static_cast<double>(last_recv - t0) / 1e9;
  return r;
}

void score_open_loop(const OpenLoopLog& log, std::size_t lo, std::size_t hi,
                     const std::vector<std::string>& expected, PhaseResult& r) {
  for (std::size_t i = lo; i < hi; ++i) {
    const Outcome o =
        log.recv_ns[i] != 0 ? classify(log.responses[i], expected[i]) : Outcome::Failed;
    r.tally.add(o);
    r.record(o == Outcome::Ok ? static_cast<double>(log.recv_ns[i] - log.due_ns[i]) / 1e3
                              : kInf,
             log.due_ns[i]);
  }
}

}  // namespace perfbench
