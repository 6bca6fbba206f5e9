#include "rpc/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "rpc/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace pmonge::rpc {

namespace {

using Clock = std::chrono::steady_clock;

void bump_max(std::atomic<std::uint64_t>& hw, std::uint64_t v) {
  std::uint64_t cur = hw.load(std::memory_order_relaxed);
  while (v > cur &&
         !hw.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// One submitted request's response slot.  The service worker fills
/// `resp` then publishes with the release store; the loop thread only
/// reads `resp` after the acquire load sees true.  Responses for one
/// connection are written strictly in pending order, which is what makes
/// the TCP bytes match stdin mode's FIFO awaiting.
struct Slot {
  std::string resp;
  std::atomic<bool> ready{false};
};

struct Conn {
  int fd = -1;
  LineFramer framer;
  std::deque<std::shared_ptr<Slot>> pending;  // loop thread only
  std::string outbound;                       // loop thread only
  std::size_t out_off = 0;  // flushed prefix of outbound (erase lazily)
  std::uint32_t mask = 0;   // current epoll interest
  bool peer_eof = false;
  bool paused = false;      // reads stopped by backpressure
  Clock::time_point last_active{};
  std::atomic<bool> queued{false};  // already in the wakeup list

  explicit Conn(std::size_t max_line) : framer(max_line) {}
  ~Conn() { close_fd(); }
  void close_fd() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  std::size_t outbound_len() const { return outbound.size() - out_off; }
};

/// Completion rendezvous between the service worker and the event loop.
/// Owned jointly by the server and every outstanding callback, so a
/// response that lands while the server is tearing down still has a live
/// list and eventfd to write to (it is simply never drained).
struct Wakeup {
  std::mutex mu;
  std::vector<std::shared_ptr<Conn>> ready;
  int efd = -1;

  Wakeup() { efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
  ~Wakeup() {
    if (efd >= 0) ::close(efd);
  }
  void signal() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(efd, &one, sizeof(one));
  }
};

/// The Wakeup of the event loop running on this thread, if any.
thread_local const Wakeup* t_loop_wakeup = nullptr;

/// The std::function a submitted line resolves through.  Copyable (the
/// service keeps a copy to answer `overloaded` on a full queue).
struct Completion {
  std::shared_ptr<Wakeup> wake;
  std::shared_ptr<Conn> conn;
  std::shared_ptr<Slot> slot;

  void operator()(std::string resp) const {
    slot->resp = std::move(resp);
    slot->ready.store(true, std::memory_order_release);
    // Answered on the loop thread itself (an `overloaded` rejection): it
    // can only be inside handle_readable's submit_line, which pumps the
    // connection next, so no wake-up.
    if (t_loop_wakeup == wake.get()) return;
    if (!conn->queued.exchange(true, std::memory_order_acq_rel)) {
      {
        std::lock_guard<std::mutex> lock(wake->mu);
        wake->ready.push_back(conn);
      }
      wake->signal();
    }
  }
};

}  // namespace

struct Server::Impl {
  serve::Service& service;
  ServerOptions opts;
  ServerStats stats;
  std::shared_ptr<Wakeup> wakeup = std::make_shared<Wakeup>();

  int ep = -1;
  int lfd = -1;
  std::uint16_t bound_port = 0;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  std::atomic<bool> stop_requested{false};
  serve::IdleBank idle;  // waits in epoll_wait fund inline grants
  bool draining = false;
  Clock::time_point drain_deadline{};

  Impl(serve::Service& s, ServerOptions o) : service(s), opts(std::move(o)) {}

  ~Impl() {
    conns.clear();
    if (lfd >= 0) ::close(lfd);
    if (ep >= 0) ::close(ep);
  }

  // -- setup ---------------------------------------------------------------

  void listen() {
    if (wakeup->efd < 0) throw std::runtime_error("rpc: eventfd failed");
    ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0) throw std::runtime_error("rpc: epoll_create1 failed");

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(opts.port);
    const int rc = ::getaddrinfo(opts.host.c_str(), port_str.c_str(), &hints,
                                 &res);
    if (rc != 0) {
      throw std::runtime_error("rpc: cannot resolve \"" + opts.host + ":" +
                               port_str + "\": " + ::gai_strerror(rc));
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK |
                                       SOCK_CLOEXEC,
                    ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
      throw std::runtime_error("rpc: cannot bind \"" + opts.host + ":" +
                               port_str + "\": " + std::strerror(errno));
    }
    if (::listen(fd, SOMAXCONN) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("rpc: listen on \"" + opts.host + ":" +
                               port_str + "\" failed: " + std::strerror(err));
    }
    sockaddr_storage ss{};
    socklen_t slen = sizeof(ss);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &slen) == 0) {
      if (ss.ss_family == AF_INET) {
        bound_port =
            ntohs(reinterpret_cast<const sockaddr_in*>(&ss)->sin_port);
      } else if (ss.ss_family == AF_INET6) {
        bound_port =
            ntohs(reinterpret_cast<const sockaddr_in6*>(&ss)->sin6_port);
      }
    }
    lfd = fd;
    add_epoll(lfd, EPOLLIN);
    add_epoll(wakeup->efd, EPOLLIN);
  }

  void add_epoll(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  }

  // -- event loop ----------------------------------------------------------

  void run() {
    struct OnLoopThread {
      explicit OnLoopThread(const Wakeup* w) { t_loop_wakeup = w; }
      ~OnLoopThread() { t_loop_wakeup = nullptr; }
    } on_loop(wakeup.get());
    std::vector<epoll_event> events(128);
    while (true) {
      if (stop_requested.load(std::memory_order_acquire) && !draining) {
        begin_drain();
      }
      if (draining) {
        if (conns.empty()) break;
        if (Clock::now() >= drain_deadline) {
          // The drain budget is spent; whatever is still stuck (a client
          // that will not read its responses) is cut loose.
          std::vector<std::shared_ptr<Conn>> left;
          left.reserve(conns.size());
          for (auto& [fd, c] : conns) left.push_back(c);
          for (auto& c : left) close_conn(*c, stats.closed);
          break;
        }
      }
      int timeout_ms = 200;
      if (draining) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            drain_deadline - Clock::now());
        timeout_ms = static_cast<int>(
            std::max<std::int64_t>(0, std::min<std::int64_t>(50,
                                                             left.count())));
      }
      const auto wait_from = Clock::now();
      const int n =
          ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                       timeout_ms);
      idle.waited(wait_from, Clock::now());
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      bool accept_ready = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wakeup->efd) {
          std::uint64_t drainv = 0;
          [[maybe_unused]] const auto r =
              ::read(wakeup->efd, &drainv, sizeof(drainv));
          process_completions();
        } else if (fd == lfd) {
          // Accept after every close in this batch has been processed, so
          // a recycled fd number can never be confused with the stale
          // connection that used to own it.
          accept_ready = true;
        } else {
          const auto it = conns.find(fd);
          if (it == conns.end()) continue;  // closed earlier in this batch
          std::shared_ptr<Conn> conn = it->second;
          const std::uint32_t ev = events[i].events;
          if ((ev & (EPOLLERR | EPOLLHUP)) != 0 &&
              (ev & (EPOLLIN | EPOLLOUT)) == 0) {
            close_conn(*conn, stats.closed);
            continue;
          }
          if ((ev & EPOLLOUT) != 0) pump(conn);
          if ((ev & EPOLLIN) != 0 && conn->fd >= 0) handle_readable(conn);
        }
      }
      if (accept_ready && !draining) accept_loop();
      sweep_idle();
    }
  }

  void begin_drain() {
    draining = true;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(
                           opts.drain_timeout_ms < 0 ? 0
                                                     : opts.drain_timeout_ms);
    if (lfd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, lfd, nullptr);
      ::close(lfd);
      lfd = -1;
    }
    // Stop reading everywhere; flush / finish whatever is in flight.
    std::vector<std::shared_ptr<Conn>> all;
    all.reserve(conns.size());
    for (auto& [fd, c] : conns) all.push_back(c);
    for (auto& c : all) pump(c);
  }

  void accept_loop() {
    while (true) {
      const int cfd =
          ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) return;  // EAGAIN, or a transient accept error
      if (conns.size() >= opts.max_conns) {
        stats.rejected_conns.fetch_add(1, std::memory_order_relaxed);
        const std::string line =
            serve::make_error_response(serve::kNoId,
                                       "overloaded: connection limit") +
            "\n";
        [[maybe_unused]] const auto r =
            ::send(cfd, line.data(), line.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        ::close(cfd);
        continue;
      }
      const int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>(opts.max_line_bytes);
      conn->fd = cfd;
      conn->last_active = Clock::now();
      conns.emplace(cfd, conn);
      stats.accepted.fetch_add(1, std::memory_order_relaxed);
      const auto active = conns.size();
      stats.active_conns.store(active, std::memory_order_relaxed);
      bump_max(stats.conn_high_water, active);
      conn->mask = EPOLLIN;
      add_epoll(cfd, conn->mask);
    }
  }

  void process_completions() {
    std::vector<std::shared_ptr<Conn>> ready;
    {
      std::lock_guard<std::mutex> lock(wakeup->mu);
      ready.swap(wakeup->ready);
    }
    for (auto& conn : ready) {
      conn->queued.store(false, std::memory_order_release);
      if (conn->fd < 0) continue;  // dropped while the response was computed
      pump(conn);
    }
  }

  // -- per-connection machinery --------------------------------------------

  void handle_readable(const std::shared_ptr<Conn>& conn) {
    if (fault::armed() && fault::should_fire(fault::Site::RpcReadStall)) {
      // A seeded stall on the read side: requests sit in the kernel
      // buffer a little longer.  Latency only -- the bytes that
      // eventually arrive are identical.
      fault::fire_delay(fault::Site::RpcReadStall);
    }
    char buf[65536];
    const ssize_t k = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (k == 0) {
      conn->peer_eof = true;
      pump(conn);
      return;
    }
    if (k < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(*conn, stats.closed);
      return;
    }
    stats.bytes_in.fetch_add(static_cast<std::uint64_t>(k),
                             std::memory_order_relaxed);
    conn->last_active = Clock::now();
    conn->framer.feed(buf, static_cast<std::size_t>(k));

    // One inline grant for every line this read framed, while the idle
    // bank lasts.
    serve::InlineAllowance allowance = idle.grant(conn->last_active);
    std::string line;
    while (true) {
      const LineFramer::Result r = conn->framer.next(line);
      if (r == LineFramer::Result::NeedMore) break;
      if (r == LineFramer::Result::Oversized) {
        stats.oversized_lines.fetch_add(1, std::memory_order_relaxed);
        local_response(
            conn, serve::make_error_response(
                      serve::kNoId,
                      "bad_request: line exceeds " +
                          std::to_string(opts.max_line_bytes) + " bytes"));
        continue;
      }
      if (line.empty()) continue;  // stdin mode skips blank lines too
      stats.lines_in.fetch_add(1, std::memory_order_relaxed);
      if (conn->pending.size() >= opts.limits.overload_inflight) {
        // Reads are already paused past max_inflight, but one recv can
        // deliver many framed lines; past the overload valve they are
        // answered exactly like an admission-queue rejection.
        stats.overload_rejected.fetch_add(1, std::memory_order_relaxed);
        serve::Request req;
        try {
          serve::parse_request_into(line, req);
        } catch (...) {  // refused either way; echo the id if it parsed
        }
        local_response(conn,
                       serve::make_error_response(req.id, "overloaded"));
        continue;
      }
      // The line's one service call.  An answer made during the call (a
      // cached hit, a control op, a rejection, a query run inline) needs
      // no Completion and no wake-up: with nothing pending it goes
      // straight into the outbound buffer, and behind pending work it
      // rides a ready slot, which keeps per-connection FIFO order.  Only
      // a line that queues gets a Slot and a Completion.
      const auto queued = [&]() -> serve::Service::ResponseCallback {
        auto slot = std::make_shared<Slot>();
        conn->pending.push_back(slot);
        return Completion{wakeup, conn, std::move(slot)};
      };
      if (conn->pending.empty()) {
        if (service.submit_line(line, conn->outbound, allowance, queued)) {
          conn->outbound += '\n';
          stats.responses_out.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (std::string resp;
                 service.submit_line(line, resp, allowance, queued)) {
        local_response(conn, std::move(resp));
      }
    }
    pump(conn);
  }

  /// Answer a framed line without a wake-up (oversized / overload
  /// rejections, answers made during submit_line behind pending work).
  /// Goes through the pending FIFO so ordering relative to in-flight
  /// requests is preserved.
  void local_response(const std::shared_ptr<Conn>& conn, std::string resp) {
    auto slot = std::make_shared<Slot>();
    slot->resp = std::move(resp);
    slot->ready.store(true, std::memory_order_release);
    conn->pending.push_back(std::move(slot));
  }

  /// Move ready responses into the outbound buffer, flush what the
  /// socket accepts, and recompute epoll interest + backpressure state.
  void pump(const std::shared_ptr<Conn>& conn) {
    if (conn->fd < 0) return;
    while (!conn->pending.empty() &&
           conn->pending.front()->ready.load(std::memory_order_acquire)) {
      const auto& slot = conn->pending.front();
      conn->outbound += slot->resp;
      conn->outbound += '\n';
      stats.responses_out.fetch_add(1, std::memory_order_relaxed);
      conn->pending.pop_front();
    }
    bump_max(stats.outbound_high_water, conn->outbound_len());
    if (conn->outbound_len() > opts.limits.hard_buffer_bytes) {
      // The never-unbounded-memory backstop: the peer stopped reading
      // long enough ago that even the post-pause responses overflowed.
      stats.overflow_drops.fetch_add(1, std::memory_order_relaxed);
      close_conn(*conn, stats.dropped_conns);
      return;
    }
    if (!flush(conn)) return;  // connection died mid-write
    if ((conn->peer_eof || draining) && conn->pending.empty() &&
        conn->outbound_len() == 0) {
      close_conn(*conn, stats.closed);
      return;
    }
    update_interest(conn);
  }

  /// Write as much of outbound as the socket accepts.  Returns false if
  /// the connection was closed (error or injected drop).
  bool flush(const std::shared_ptr<Conn>& conn) {
    if (conn->outbound_len() > 0 && fault::armed() &&
        fault::should_fire(fault::Site::RpcConnDrop)) {
      // Injected abrupt disconnect: answers already computed are lost
      // with the connection, exactly like a peer yanked mid-write.  The
      // service-side books stay consistent; only delivery suffers.
      close_conn(*conn, stats.dropped_conns);
      return false;
    }
    while (conn->outbound_len() > 0) {
      const ssize_t k = ::send(conn->fd, conn->outbound.data() + conn->out_off,
                               conn->outbound_len(), MSG_NOSIGNAL);
      if (k > 0) {
        stats.bytes_out.fetch_add(static_cast<std::uint64_t>(k),
                                  std::memory_order_relaxed);
        conn->out_off += static_cast<std::size_t>(k);
        conn->last_active = Clock::now();
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (k < 0 && errno == EINTR) continue;
      close_conn(*conn, stats.closed);  // EPIPE/ECONNRESET: peer is gone
      return false;
    }
    if (conn->out_off == conn->outbound.size()) {
      conn->outbound.clear();
      conn->out_off = 0;
    } else if (conn->out_off > (std::size_t{1} << 16)) {
      conn->outbound.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    return true;
  }

  void update_interest(const std::shared_ptr<Conn>& conn) {
    const bool want_pause =
        conn->pending.size() >= opts.limits.max_inflight ||
        conn->outbound_len() >= opts.limits.soft_buffer_bytes;
    if (want_pause && !conn->paused) {
      stats.read_pauses.fetch_add(1, std::memory_order_relaxed);
    }
    conn->paused = want_pause;
    std::uint32_t mask = 0;
    if (!conn->paused && !conn->peer_eof && !draining) mask |= EPOLLIN;
    if (conn->outbound_len() > 0) mask |= EPOLLOUT;
    if (mask != conn->mask) {
      epoll_event ev{};
      ev.events = mask;
      ev.data.fd = conn->fd;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, conn->fd, &ev);
      conn->mask = mask;
    }
  }

  void close_conn(Conn& conn, std::atomic<std::uint64_t>& counter) {
    if (conn.fd < 0) return;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
    const int fd = conn.fd;
    conn.close_fd();
    conns.erase(fd);
    counter.fetch_add(1, std::memory_order_relaxed);
    stats.active_conns.store(conns.size(), std::memory_order_relaxed);
  }

  void sweep_idle() {
    if (opts.idle_timeout_ms <= 0 || draining) return;
    const auto cutoff =
        Clock::now() - std::chrono::milliseconds(opts.idle_timeout_ms);
    std::vector<std::shared_ptr<Conn>> idle;
    for (auto& [fd, c] : conns) {
      if (c->pending.empty() && c->outbound_len() == 0 &&
          c->last_active < cutoff) {
        idle.push_back(c);
      }
    }
    for (auto& c : idle) close_conn(*c, stats.idle_closed);
  }
};

Server::Server(serve::Service& service, ServerOptions opts)
    : impl_(std::make_unique<Impl>(service, std::move(opts))) {}

Server::~Server() = default;

void Server::listen() { impl_->listen(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

void Server::run() { impl_->run(); }

void Server::request_stop() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wakeup->signal();
}

const ServerStats& Server::stats() const { return impl_->stats; }

serve::Json Server::stats_json() const {
  const ServerStats& s = impl_->stats;
  const auto v = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  serve::Json::Obj o;
  o["accepted"] = v(s.accepted);
  o["rejected"] = v(s.rejected_conns);
  o["closed"] = v(s.closed);
  o["dropped"] = v(s.dropped_conns);
  o["overflow_dropped"] = v(s.overflow_drops);
  o["idle_closed"] = v(s.idle_closed);
  o["active"] = v(s.active_conns);
  o["conn_high_water"] = v(s.conn_high_water);
  o["lines_in"] = v(s.lines_in);
  o["responses_out"] = v(s.responses_out);
  o["oversized_lines"] = v(s.oversized_lines);
  o["overload_rejected"] = v(s.overload_rejected);
  o["bytes_in"] = v(s.bytes_in);
  o["bytes_out"] = v(s.bytes_out);
  o["read_pauses"] = v(s.read_pauses);
  o["outbound_high_water_bytes"] = v(s.outbound_high_water);
  return serve::Json(std::move(o));
}

}  // namespace pmonge::rpc
