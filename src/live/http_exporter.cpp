#include "live/http_exporter.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "live/flight_recorder.hpp"
#include "live/status.hpp"
#include "telemetry/telemetry.hpp"

namespace fedra::live {

namespace {

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out;
  out.reserve(body.size() + 128);
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status, reason, content_type, body.size());
  out += head;
  out += body;
  return out;
}

/// Time a client has to deliver its whole request, and the bound on each
/// send of the response: a client that trickles bytes or never reads
/// cannot pin an accept thread past them.
constexpr std::chrono::microseconds kRequestDeadline{2'000'000};
constexpr std::chrono::microseconds kSendTimeout{2'000'000};

void set_socket_timeout(int fd, int option, std::chrono::microseconds t) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(t.count() / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(t.count() % 1'000'000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// First request line up to the blank line; 8 KiB cap (a GET of three
/// short paths never comes close). The receive timeout is re-armed with
/// what remains of kRequestDeadline before every recv, so the deadline
/// bounds the whole request, not each read.
bool read_request(int fd, std::string& out) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kRequestDeadline;
  char buf[1024];
  out.clear();
  while (out.size() < 8192) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return !out.empty();
    set_socket_timeout(fd, SO_RCVTIMEO, left);
    const ::ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return !out.empty();
    out.append(buf, static_cast<std::size_t>(n));
    if (out.find("\r\n\r\n") != std::string::npos ||
        out.find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return true;
}

void append_json_number(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6f", key, v);
  out += buf;
}

void append_json_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

LiveServer::LiveServer(LiveConfig config) : config_(config) {
  if (config_.accept_threads < 1) config_.accept_threads = 1;
}

LiveServer::~LiveServer() { stop(); }

bool LiveServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never exposed off-host
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);
  }

  start_us_ = telemetry::now_us();
  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  detail::g_live_servers.fetch_add(1, std::memory_order_relaxed);
  acceptors_.reserve(static_cast<std::size_t>(config_.accept_threads));
  for (int i = 0; i < config_.accept_threads; ++i) {
    acceptors_.emplace_back([this] { accept_loop(); });
  }
  return true;
}

void LiveServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  detail::g_live_servers.fetch_sub(1, std::memory_order_relaxed);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes every thread blocked in accept() with an error;
    // close() alone does not reliably do that on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (auto& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  port_.store(0, std::memory_order_release);
}

void LiveServer::accept_loop() {
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      continue;  // transient (EINTR / aborted connection)
    }
    handle_connection(conn);
    ::close(conn);
  }
}

void LiveServer::handle_connection(int fd) {
  set_socket_timeout(fd, SO_SNDTIMEO, kSendTimeout);
  std::string request;
  if (!read_request(fd, request)) return;

  // "GET /path?query HTTP/1.1"
  std::string response;
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = http_response(400, "Bad Request", "text/plain",
                             "malformed request line\n");
  } else if (request.compare(0, sp1, "GET") != 0) {
    response = http_response(405, "Method Not Allowed", "text/plain",
                             "only GET is served\n");
  } else {
    response = respond(request.substr(sp1 + 1, sp2 - sp1 - 1));
  }

  std::size_t off = 0;
  while (off < response.size()) {
    const ::ssize_t n =
        ::send(fd, response.data() + off, response.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string LiveServer::respond(const std::string& target) {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  // Mirror into the registry so scrape counts appear in flushed JSONL
  // runs (telemetry_report's `== live ==` section) and in /metrics.
  static telemetry::Counter scrape_counter =
      telemetry::Telemetry::metrics().counter("live.http.scrapes");
  scrape_counter.add();

  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query =
      q == std::string::npos ? std::string() : target.substr(q + 1);

  if (path == "/metrics") {
    static telemetry::Gauge dropped_gauge =
        telemetry::Telemetry::metrics().gauge("live.recorder.dropped");
    dropped_gauge.set(static_cast<double>(flight_recorder_stats().dropped));
    std::ostringstream os;
    telemetry::write_prometheus(os,
                                telemetry::Telemetry::metrics().snapshot());
    return http_response(200, "OK", "text/plain; version=0.0.4", os.str());
  }

  if (path == "/healthz") {
    const double age = watchdog_age_s();
    const bool stale = config_.watchdog_stale_s > 0.0 && age >= 0.0 &&
                       age > config_.watchdog_stale_s;
    std::string body = "{";
    body += stale ? "\"status\":\"stale\"," : "\"status\":\"ok\",";
    append_json_number(body, "uptime_s",
                       (telemetry::now_us() - start_us_) / 1e6);
    body += ',';
    append_json_number(body, "watchdog_age_s", age);
    body += ',';
    append_json_number(body, "watchdog_stale_s", config_.watchdog_stale_s);
    body += "}";
    return stale ? http_response(503, "Service Unavailable",
                                 "application/json", body)
                 : http_response(200, "OK", "application/json", body);
  }

  if (path == "/statusz") {
    const FlightRecorderStats rec = flight_recorder_stats();
    const auto [arms_total, arms_done] = sweep_progress();
    std::string body = "{";
    append_json_u64(body, "scrapes",
                    scrapes_.load(std::memory_order_relaxed));
    body += ',';
    append_json_number(body, "uptime_s",
                       (telemetry::now_us() - start_us_) / 1e6);
    body += ',';
    append_json_number(body, "watchdog_age_s", watchdog_age_s());
    body += ",\"telemetry_enabled\":";
    body += telemetry::Telemetry::enabled() ? "true" : "false";
    body += ",\"recorder\":{\"enabled\":";
    body += flight_recorder_enabled() ? "true" : "false";
    body += ',';
    append_json_u64(body, "threads", rec.threads);
    body += ',';
    append_json_u64(body, "records", rec.records);
    body += ',';
    append_json_u64(body, "dropped", rec.dropped);
    body += "},\"sweep\":{";
    append_json_u64(body, "arms_total", arms_total);
    body += ',';
    append_json_u64(body, "arms_done", arms_done);
    body += "},\"sources\":{";
    collect_status_json(body);
    body += '}';
    if (query.find("recorder=1") != std::string::npos) {
      body += ",\"flight_recorder\":";
      append_flight_recorder_json(body);
    }
    body += '}';
    return http_response(200, "OK", "application/json", body);
  }

  return http_response(404, "Not Found", "text/plain",
                       "endpoints: /metrics /healthz /statusz\n");
}

}  // namespace fedra::live
