// Tests for src/obs/http_server: the dependency-free observability HTTP
// plane. An ephemeral-port server is started per test (no fixed ports, no
// collisions), scraped with the in-repo obs::http_get client, and checked
// for: exact byte equality between the /metrics body and
// MetricsRegistry::to_text() (the scrape counts itself BEFORE rendering),
// /healthz build provenance, typed error statuses (404/405/500), the
// request-head cap, graceful stop, and concurrent scrapes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"

namespace odonn {
namespace {

constexpr const char* kLoopback = "127.0.0.1";

TEST(HttpServer, BindsEphemeralPortAndServesRegisteredRoute) {
  obs::HttpServer server;
  server.handle("/ping", [](const obs::HttpRequest& request) {
    obs::HttpResponse response;
    response.body = "pong " + request.path;
    return response;
  });
  server.start();
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const auto result = obs::http_get(kLoopback, server.port(), "/ping");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "pong /ping");
  // Query strings are stripped before dispatch.
  const auto with_query =
      obs::http_get(kLoopback, server.port(), "/ping?x=1&y=2");
  ASSERT_TRUE(with_query.ok) << with_query.error;
  EXPECT_EQ(with_query.status, 200);
  EXPECT_EQ(with_query.body, "pong /ping");

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(HttpServer, MetricsBodyIsByteIdenticalToTextExporter) {
  obs::MetricsRegistry::global().counter("test.http.scrape").add(3);
  obs::HttpServer server;
  obs::register_obs_routes(server);
  server.start();

  // The handler bumps obs.http.requests BEFORE rendering, so the body the
  // scraper receives already includes its own scrape and must equal a
  // to_text() taken right after — the Prometheus-compatibility contract.
  const auto result = obs::http_get(kLoopback, server.port(), "/metrics");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, obs::MetricsRegistry::global().to_text());
  EXPECT_NE(result.body.find("odonn_test_http_scrape 3"), std::string::npos);
  EXPECT_NE(result.body.find("# HELP odonn_serve_requests"),
            std::string::npos);
}

TEST(HttpServer, MetricsJsonAndSpansRoutesServeJson) {
  obs::HttpServer server;
  obs::register_obs_routes(server);
  server.start();

  const auto metrics =
      obs::http_get(kLoopback, server.port(), "/metrics.json");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"build\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"metrics\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"trace_dropped\""), std::string::npos);

  const auto spans = obs::http_get(kLoopback, server.port(), "/spans");
  ASSERT_TRUE(spans.ok) << spans.error;
  EXPECT_EQ(spans.status, 200);
  EXPECT_EQ(spans.body.front(), '[');
  EXPECT_EQ(spans.body.back(), ']');
}

TEST(HttpServer, HealthzReportsBuildInfoAndExtras) {
  obs::HttpServer server;
  obs::ObsRouteOptions routes;
  routes.health_extra = [] { return std::string("\"replicas\": 3"); };
  obs::register_obs_routes(server, routes);
  server.start();

  const auto result = obs::http_get(kLoopback, server.port(), "/healthz");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(result.body.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(result.body.find("\"compiler\": \""), std::string::npos);
  EXPECT_NE(result.body.find("\"obs_disabled\": false"), std::string::npos);
  EXPECT_NE(result.body.find("\"uptime_s\": "), std::string::npos);
  EXPECT_NE(result.body.find("\"replicas\": 3"), std::string::npos);
}

TEST(HttpServer, TypedErrorStatusesAndErrorCounter) {
  auto& errors = obs::MetricsRegistry::global().counter("obs.http.errors");
  const std::uint64_t before = errors.value();

  obs::HttpServer server;
  server.handle("/boom", [](const obs::HttpRequest&) -> obs::HttpResponse {
    throw Error("intentional handler failure");
  });
  server.start();

  const auto missing = obs::http_get(kLoopback, server.port(), "/missing");
  ASSERT_TRUE(missing.ok) << missing.error;
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/missing"), std::string::npos);

  const auto post =
      obs::http_get(kLoopback, server.port(), "/boom", 5000, "POST");
  ASSERT_TRUE(post.ok) << post.error;
  EXPECT_EQ(post.status, 405);

  const auto boom = obs::http_get(kLoopback, server.port(), "/boom");
  ASSERT_TRUE(boom.ok) << boom.error;
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("intentional handler failure"), std::string::npos);

  EXPECT_EQ(errors.value() - before, 3u);
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(HttpServer, ConcurrentScrapesAllSucceed) {
  obs::HttpServer server;
  obs::register_obs_routes(server);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([port, c, &failures] {
      for (int i = 0; i < kPerClient; ++i) {
        const auto result = obs::http_get(kLoopback, port, "/metrics");
        if (!result.ok || result.status != 200 || result.body.empty()) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients) * kPerClient);
}

TEST(HttpServer, ClientReportsTransportErrors) {
  // Nothing listens on this port (we bind-and-close to find a free one).
  obs::HttpServer probe;
  probe.start();
  const std::uint16_t dead_port = probe.port();
  probe.stop();

  const auto result = obs::http_get(kLoopback, dead_port, "/metrics", 500);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());

  const auto bad_host = obs::http_get("not-an-ip", 80, "/", 500);
  EXPECT_FALSE(bad_host.ok);
  EXPECT_NE(bad_host.error.find("IPv4"), std::string::npos);
}

TEST(HttpServer, OversizedHeadGetsA400BeforeTheReceiveTimeout) {
  obs::HttpServer server;
  server.start();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A client-side bound, so a server that never answers fails the test
  // instead of hanging it.
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, kLoopback, &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Exactly the 8192-byte head cap and no CRLF: the server must stop
  // reading at the cap and answer at once, not wait out its 5 s receive
  // timeout. Bytes past the cap would stay unread at close, and the reset
  // they cause can reach the client before the 400.
  const std::string head(8192, 'A');
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < head.size()) {
    const ssize_t n = ::send(fd, head.data() + sent, head.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[1024];
  for (ssize_t n; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
  EXPECT_LT(seconds, 2.5);
}

TEST(HttpServer, RejectsInvalidConfiguration) {
  obs::HttpServerOptions bad_address;
  bad_address.bind_address = "definitely.not.an.address";
  obs::HttpServer server(bad_address);
  EXPECT_THROW(server.start(), ConfigError);

  obs::HttpServer routes;
  EXPECT_THROW(routes.handle("no-slash", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  }),
               Error);
}

}  // namespace
}  // namespace odonn
