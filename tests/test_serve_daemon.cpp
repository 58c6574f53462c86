// The daemon end-to-end over loopback: the unified API's core promise is
// that an answer served over a socket is BIT-IDENTICAL to the answer the
// same ServeRequest gets from an in-process ServeEngine. On top of that:
// concurrent clients against the sharded engine, typed admission-control
// rejections (token bucket and queue depth -- never a silent drop),
// protocol-error containment (a damaged payload answers typed and the
// connection survives; damaged framing answers typed and the connection
// closes), and the SIGTERM-style drain identity
// requests_admitted == responses_sent observable via counters.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "rom/serve_engine.hpp"

namespace {

using namespace atmor;

// Tiny but real build catalog: both the daemon's engine and the reference
// engine resolve specs through this, so wire answers and in-process answers
// come from independently-built (deterministically identical) models.
rom::ReducedModel build_from_spec(const rom::BuildSpec& spec) {
    if (spec.recipe != "nltl" || spec.params.size() != 2)
        throw rom::UnresolvedError("test catalog: unknown recipe '" + spec.recipe + "'");
    circuits::NltlOptions copt;
    copt.stages = 4;
    copt.diode_alpha = spec.params[0];
    core::AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 2;
    mor.k3 = 0;
    mor.expansion_points = {la::Complex(spec.params[1], 0.0)};
    core::MorResult r =
        core::reduce_associated(circuits::current_source_line(copt).to_qldae(), mor);
    r.provenance.source = spec.key();
    return r;
}

rom::BuildSpec spec(double alpha, double s0) {
    rom::BuildSpec s;
    s.recipe = "nltl";
    s.params = {alpha, s0};
    return s;
}

std::shared_ptr<rom::ServeEngine> make_engine() {
    auto engine = std::make_shared<rom::ServeEngine>(std::make_shared<rom::Registry>());
    engine->set_spec_resolver(&build_from_spec);
    return engine;
}

std::vector<la::Complex> make_grid(int points, int offset) {
    std::vector<la::Complex> grid;
    for (int j = 0; j < points; ++j) grid.emplace_back(0.0, 0.05 * (j + 1 + offset));
    return grid;
}

rom::ServeRequest request_for(int i, const std::string& tenant) {
    rom::ServeRequest req;
    req.tenant = tenant;
    const rom::BuildSpec sp = spec(32.0 + 4.0 * (i % 3), 1.0);
    switch (i % 3) {
        case 0:
            req.body = rom::FrequencySweepRequest{rom::ModelRef::from_spec(sp),
                                                  make_grid(8, i % 4)};
            break;
        case 1: {
            rom::TransientBatchRequest tb;
            tb.model = rom::ModelRef::from_spec(sp);
            tb.inputs = {rom::WaveformSpec::pulse(0.4, 0.5, 1.0, 2.0, 1.5)};
            tb.options.t_end = 2.0;
            tb.options.dt = 1e-2;
            tb.options.record_stride = 20;
            req.body = tb;
            break;
        }
        default:
            req.body = rom::CertificateRequest{rom::ModelRef::from_spec(sp)};
            break;
    }
    return req;
}

/// A raw loopback socket for speaking deliberately-damaged bytes at the
/// daemon (ServeClient refuses to construct malformed frames).
class RawConn {
public:
    explicit RawConn(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("RawConn: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
            throw std::runtime_error("RawConn: connect() failed");
    }
    ~RawConn() {
        if (fd_ >= 0) ::close(fd_);
    }

    void send_all(const std::string& bytes) {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                                     MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Blocks for one complete response frame; returns its payload.
    std::string read_response() {
        char buf[64 * 1024];
        while (true) {
            net::FrameKind kind;
            std::string payload;
            const std::size_t consumed = net::try_unframe(rx_, &kind, &payload);
            if (consumed > 0) {
                rx_.erase(0, consumed);
                EXPECT_EQ(kind, net::FrameKind::response);
                return payload;
            }
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) {
                ADD_FAILURE() << "daemon closed before a full response arrived";
                return {};
            }
            rx_.append(buf, static_cast<std::size_t>(n));
        }
    }

    /// True when the daemon closed the connection (EOF after pending bytes).
    bool closed_by_peer() {
        char buf[4096];
        while (true) {
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0) return true;
            if (n < 0) return false;
            rx_.append(buf, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string rx_;
};

TEST(ServeDaemon, ConcurrentClientsMatchInProcessAnswersBitwise) {
    auto engine = make_engine();
    net::DaemonOptions opts;
    opts.workers = 4;
    net::Daemon daemon(engine, opts);
    daemon.start();

    auto reference = make_engine();

    constexpr int kClients = 8;
    constexpr int kPerClient = 6;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            net::ServeClient client("127.0.0.1", daemon.port());
            for (int i = 0; i < kPerClient; ++i) {
                const rom::ServeRequest req =
                    request_for(c + i, "tenant-" + std::to_string(c % 2));
                const std::string wire = client.call_raw(rom::encode_request(req));
                const std::string local =
                    rom::encode_response(reference->serve(req));
                if (wire != local) mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "wire answers differ from in-process answers";

    daemon.request_stop();
    daemon.wait();
    const net::DaemonStats s = daemon.stats();
    EXPECT_EQ(s.connections_accepted, kClients);
    EXPECT_EQ(s.requests_admitted, kClients * kPerClient);
    EXPECT_EQ(s.responses_sent, s.requests_admitted) << "drain identity violated";
    EXPECT_EQ(s.overloaded_queue, 0);
    EXPECT_EQ(s.overloaded_tenant, 0);
    EXPECT_EQ(s.protocol_errors, 0);
}

TEST(ServeDaemon, TokenBucketRejectsTypedAndConnectionSurvives) {
    auto engine = make_engine();
    net::DaemonOptions opts;
    opts.workers = 1;
    opts.tenant_rate = 0.001;  // effectively: the burst is all you get
    opts.tenant_burst = 2.0;
    net::Daemon daemon(engine, opts);
    daemon.start();

    net::ServeClient client("127.0.0.1", daemon.port());
    int ok = 0, overloaded = 0;
    for (int i = 0; i < 6; ++i) {
        const rom::ServeResponse resp = client.call(request_for(2, "greedy"));  // certificate
        if (resp.ok()) {
            ++ok;
        } else {
            EXPECT_EQ(resp.error.code, util::ErrorCode::serve_overloaded);
            EXPECT_NE(resp.error.message.find("greedy"), std::string::npos)
                << "rejection names the tenant: " << resp.error.message;
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 2) << "burst admits exactly tenant_burst requests";
    EXPECT_EQ(overloaded, 4);

    // Admission is per-tenant: a different tenant on the SAME daemon still
    // gets served, over the SAME (surviving) connection.
    const rom::ServeResponse other = client.call(request_for(2, "patient"));
    EXPECT_TRUE(other.ok()) << other.error.message;

    daemon.request_stop();
    daemon.wait();
    const net::DaemonStats s = daemon.stats();
    EXPECT_EQ(s.overloaded_tenant, 4);
    EXPECT_EQ(s.requests_admitted, 3);
    EXPECT_EQ(s.responses_sent, 3);
}

TEST(ServeDaemon, QueueDepthBackpressureRejectsTyped) {
    auto engine = make_engine();
    net::DaemonOptions opts;
    opts.workers = 1;
    opts.max_queue_depth = 1;
    net::Daemon daemon(engine, opts);
    daemon.start();

    // Occupy the single queue slot with a deliberately long transient (the
    // slot covers queued AND running work, so the daemon stays saturated
    // until the solve finishes).
    std::atomic<bool> slow_done{false};
    std::thread slow([&] {
        net::ServeClient client("127.0.0.1", daemon.port());
        rom::ServeRequest req;
        req.tenant = "slow";
        rom::TransientBatchRequest tb;
        tb.model = rom::ModelRef::from_spec(spec(32.0, 1.0));
        tb.inputs = {rom::WaveformSpec::sine(0.2, 0.5)};
        tb.options.t_end = 2.0;
        tb.options.dt = 1e-6;  // ~2M steps: holds the slot for seconds
        tb.options.record_stride = 100000;
        req.body = tb;
        const rom::ServeResponse resp = client.call(req);
        EXPECT_TRUE(resp.ok()) << resp.error.message;
        slow_done.store(true);
    });

    // Poke at the full queue while the slow request holds it: every attempt
    // must come back as a TYPED overloaded response, never hang or drop.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    net::ServeClient client("127.0.0.1", daemon.port());
    int rejected = 0;
    while (!slow_done.load() && rejected == 0) {
        const rom::ServeResponse resp = client.call(request_for(2, "probe"));
        if (!resp.ok()) {
            EXPECT_EQ(resp.error.code, util::ErrorCode::serve_overloaded);
            ++rejected;
        }
    }
    slow.join();
    daemon.request_stop();
    daemon.wait();
    const net::DaemonStats s = daemon.stats();
    EXPECT_GE(rejected, 1) << "queue never reported saturation";
    EXPECT_EQ(s.overloaded_queue, rejected);
    EXPECT_EQ(s.responses_sent, s.requests_admitted);
}

TEST(ServeDaemon, InvalidWaveformFieldsAnswerTypedAndConnectionSurvives) {
    // Every way a wire WaveformSpec can violate instantiate()'s
    // preconditions must come back as a typed precondition response carrying
    // the TRANSIENT kind -- never a dead request, a dropped connection, or a
    // protocol error (the frame and payload are well-formed; the fields are
    // the client's mistake).
    auto engine = make_engine();
    net::Daemon daemon(engine, net::DaemonOptions{});
    daemon.start();

    const auto bad_pulse = [](double rise, double t_off, double fall) {
        rom::WaveformSpec w = rom::WaveformSpec::pulse(0.4, 0.5, rise, t_off, fall);
        return w;
    };
    const auto bad_surge = [](double tau_rise, double tau_decay) {
        return rom::WaveformSpec::surge(0.4, tau_rise, tau_decay);
    };
    std::vector<rom::WaveformSpec> invalid;
    invalid.push_back(bad_pulse(0.0, 2.0, 1.5));    // rise <= 0
    invalid.push_back(bad_pulse(-1.0, 2.0, 1.5));   // rise < 0
    invalid.push_back(bad_pulse(0.5, 2.0, 0.0));    // fall <= 0
    invalid.push_back(bad_pulse(0.5, 2.0, -0.5));   // fall < 0
    invalid.push_back(bad_pulse(0.5, 0.6, 1.5));    // t_off < t_on + rise
    invalid.push_back(bad_surge(1.0, 1.0));         // tau_decay == tau_rise
    invalid.push_back(bad_surge(2.0, 1.0));         // tau_decay < tau_rise
    invalid.push_back(bad_surge(0.0, 1.0));         // tau_rise <= 0

    net::ServeClient client("127.0.0.1", daemon.port());
    for (std::size_t i = 0; i < invalid.size(); ++i) {
        rom::ServeRequest req;
        req.tenant = "t";
        rom::TransientBatchRequest tb;
        tb.model = rom::ModelRef::from_spec(spec(32.0, 1.0));
        tb.inputs = {invalid[i]};
        tb.options.t_end = 1.0;
        tb.options.dt = 1e-2;
        req.body = tb;
        const rom::ServeResponse resp = client.call(req);
        EXPECT_FALSE(resp.ok()) << "case " << i << " was served";
        EXPECT_EQ(resp.error.code, util::ErrorCode::precondition)
            << "case " << i << ": " << util::to_string(resp.error.code);
        EXPECT_EQ(resp.kind, rom::RequestKind::transient_batch) << "case " << i;
        EXPECT_FALSE(resp.error.message.empty());
    }

    // The SAME connection still serves a good request afterwards.
    const rom::ServeResponse good = client.call(request_for(1, "t"));
    EXPECT_TRUE(good.ok()) << good.error.message;

    daemon.request_stop();
    daemon.wait();
    const net::DaemonStats s = daemon.stats();
    EXPECT_EQ(s.protocol_errors, 0) << "field errors are not protocol errors";
    EXPECT_EQ(s.requests_admitted, static_cast<long>(invalid.size()) + 1);
    EXPECT_EQ(s.responses_sent, s.requests_admitted) << "drain identity violated";
}

TEST(ServeDaemon, DamagedPayloadErrorCarriesTheActualRequestKind) {
    // A decode failure AFTER the tenant+kind prefix must answer with the
    // kind the client actually sent: a transient client keying error
    // handling off the response kind must not see a frequency_sweep error.
    auto engine = make_engine();
    net::Daemon daemon(engine, net::DaemonOptions{});
    daemon.start();

    RawConn conn(daemon.port());
    // A valid transient_batch request truncated mid-body: the tenant and
    // kind bytes survive, the body decode throws a typed truncation error.
    const std::string enc = rom::encode_request(request_for(1, "t"));
    conn.send_all(net::frame_message(net::FrameKind::request,
                                     enc.substr(0, enc.size() - 5)));
    const rom::ServeResponse resp = rom::decode_response(conn.read_response());
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, util::ErrorCode::io_truncated)
        << util::to_string(resp.error.code);
    EXPECT_EQ(resp.kind, rom::RequestKind::transient_batch)
        << "error response misreports the request kind";

    // The connection survives the damaged payload.
    conn.send_all(net::frame_message(net::FrameKind::request,
                                     rom::encode_request(request_for(2, "t"))));
    EXPECT_TRUE(rom::decode_response(conn.read_response()).ok());

    daemon.request_stop();
    daemon.wait();
    EXPECT_EQ(daemon.stats().protocol_errors, 1);
}

TEST(ServeDaemon, DamagedPayloadAnswersTypedAndConnectionSurvives) {
    auto engine = make_engine();
    net::Daemon daemon(engine, net::DaemonOptions{});
    daemon.start();

    RawConn conn(daemon.port());

    // A VALID frame whose payload is garbage to the serve_api codec: the
    // daemon must answer with a typed io_* error and keep the connection.
    const std::string garbage_payload = std::string("\x06tenant") + "\xff\xff\xff\xff";
    conn.send_all(net::frame_message(net::FrameKind::request, garbage_payload));
    {
        const rom::ServeResponse resp = rom::decode_response(conn.read_response());
        EXPECT_FALSE(resp.ok());
        EXPECT_TRUE(resp.error.code == util::ErrorCode::io_corrupt ||
                    resp.error.code == util::ErrorCode::io_truncated)
            << util::to_string(resp.error.code);
    }

    // A frame whose payload bytes were flipped in flight (checksum breaks):
    // typed proto_checksum_mismatch, frame skipped, connection survives.
    std::string flipped =
        net::frame_message(net::FrameKind::request,
                           rom::encode_request(request_for(2, "t")));
    flipped[net::kFrameHeaderBytes + 2] ^= 0x20;
    conn.send_all(flipped);
    {
        const rom::ServeResponse resp = rom::decode_response(conn.read_response());
        EXPECT_EQ(resp.error.code, util::ErrorCode::proto_checksum_mismatch);
    }

    // The same connection still serves a good request afterwards.
    conn.send_all(net::frame_message(net::FrameKind::request,
                                     rom::encode_request(request_for(2, "t"))));
    {
        const rom::ServeResponse resp = rom::decode_response(conn.read_response());
        EXPECT_TRUE(resp.ok()) << resp.error.message;
    }

    daemon.request_stop();
    daemon.wait();
    EXPECT_EQ(daemon.stats().protocol_errors, 2);
}

TEST(ServeDaemon, BrokenFramingAnswersTypedThenCloses) {
    auto engine = make_engine();
    net::Daemon daemon(engine, net::DaemonOptions{});
    daemon.start();

    RawConn conn(daemon.port());
    conn.send_all("NOTATMOR garbage garbage garbage");
    const rom::ServeResponse resp = rom::decode_response(conn.read_response());
    EXPECT_EQ(resp.error.code, util::ErrorCode::proto_bad_magic);
    EXPECT_TRUE(conn.closed_by_peer()) << "daemon kept a desynchronized connection";

    daemon.request_stop();
    daemon.wait();
    EXPECT_EQ(daemon.stats().protocol_errors, 1);
}

TEST(ServeDaemon, StopWithoutTrafficDrainsImmediately) {
    auto engine = make_engine();
    net::Daemon daemon(engine, net::DaemonOptions{});
    daemon.start();
    daemon.request_stop();
    daemon.wait();
    const net::DaemonStats s = daemon.stats();
    EXPECT_EQ(s.requests_admitted, 0);
    EXPECT_EQ(s.responses_sent, 0);
    EXPECT_EQ(s.drained_requests, 0);
}

}  // namespace
