/**
 * @file
 * gw_durable_mixed and gw_volatile_read: an in-process pmnetd
 * (GatewayServer) on its own loop thread, and one load-generator
 * thread driving every GatewayClient session over loopback UDP.
 *
 * The daemon thread constructs, runs and destroys the server, so every
 * packet the daemon's stack allocates lives and dies on that thread's
 * packet pool. The load thread parks in epoll on the client sockets
 * between completions; a session with requests in flight is also
 * polled every 2 ms so its retry timers run. A session in its idle
 * slot is never polled: its embedded simulator clock stands still
 * until it issues again, exactly as a real caller's would.
 */

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "apps/kv_protocol.h"
#include "common/rng.h"
#include "gateway/client.h"
#include "gateway/server.h"
#include "net/packet.h"
#include "workloads.h"

namespace perfbench {

using namespace pmnet;
using gateway::GatewayClient;
using gateway::GatewayServer;

namespace {

constexpr std::int64_t kMs = 1'000'000;
/** A request slower than this counts as failed. */
constexpr std::int64_t kDeadlineNs = 1000 * kMs;
constexpr int kSetups = 3;

struct GwSpec
{
    bool durable;
    int sessions;
    int window;            ///< requests in flight per session
    double updateRatio;
    std::size_t valueSize;
    std::size_t keysPerSession;
    /**
     * Idle schedule; cycleNs 0 = never idle. Session i stops issuing
     * for idleNs at offset i * cycleNs / sessions of every cycle, so
     * with idleNs * sessions == cycleNs exactly one session is idle at
     * any time and the daemon's load stays level.
     */
    std::int64_t cycleNs;
    std::int64_t idleNs;
    double warmupS;
};

GwSpec
specFor(bool durable)
{
    if (durable)
        return {true, 4, 4, 0.5, 1024, 128, 0, 0, 0.3};
    return {false, 4, 4, 0.1, 16, 1024, 100 * kMs, 25 * kMs, 0.3};
}

// ------------------------------------------------------------------ daemon

/** One GatewayServer living on its own loop thread. */
class Daemon
{
  public:
    explicit Daemon(GatewayServer::Config config) : config_(std::move(config))
    {
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Construct the server on the loop thread. @return seconds taken. */
    double
    start()
    {
        wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
        thread_ = std::thread([this] { loop(); });
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return ready_; });
        return constructS_;
    }

    /** Destroy the server without syncDurable (a kill) and join. */
    void
    stop()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard lock(mutex_);
            quit_ = true;
        }
        wake();
        thread_.join();
        ::close(wakeFd_);
    }

    /** Run @p fn against the server while the loop thread is parked. */
    template <typename Fn>
    void
    paused(Fn &&fn)
    {
        std::unique_lock lock(mutex_);
        pauseRequested_ = true;
        wake();
        cv_.wait(lock, [this] { return parked_; });
        fn(*server_, *poolMetrics_);
        pauseRequested_ = false;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !parked_; });
    }

    std::uint16_t port() const { return port_; }
    unsigned long threadHandle() { return thread_.native_handle(); }

  private:
    void
    wake()
    {
        std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
    }

    void
    loop()
    {
        try {
            serve();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: daemon thread: %s\n", e.what());
            std::_Exit(3);
        }
    }

    void
    serve()
    {
        std::int64_t t0 = wallNs();
        server_ = std::make_unique<GatewayServer>(config_);
        poolMetrics_ = std::make_unique<obs::MetricRegistry>();
        net::PacketPool::local().registerMetrics(*poolMetrics_, "packetPool");
        server_->runtime().addFd(wakeFd_, [this] {
            std::uint64_t v;
            while (::read(wakeFd_, &v, sizeof(v)) > 0)
                ;
        });
        {
            std::lock_guard lock(mutex_);
            constructS_ = static_cast<double>(wallNs() - t0) * 1e-9;
            port_ = server_->localPort();
            ready_ = true;
        }
        cv_.notify_all();
        for (;;) {
            {
                std::unique_lock lock(mutex_);
                if (quit_)
                    break;
                if (pauseRequested_) {
                    parked_ = true;
                    cv_.notify_all();
                    cv_.wait(lock, [this] { return !pauseRequested_; });
                    parked_ = false;
                    cv_.notify_all();
                    continue;
                }
            }
            server_->runtime().pollOnce(-1);
        }
        poolMetrics_.reset();
        server_.reset();
    }

    GatewayServer::Config config_;
    std::unique_ptr<GatewayServer> server_;
    std::unique_ptr<obs::MetricRegistry> poolMetrics_;
    int wakeFd_ = -1;
    std::mutex mutex_; ///< guards the flags and values below
    std::condition_variable cv_;
    bool ready_ = false, quit_ = false;
    bool pauseRequested_ = false, parked_ = false;
    double constructS_ = 0;
    std::uint16_t port_ = 0;
    std::thread thread_; ///< last: uses every member above
};

// --------------------------------------------------------------- sessions

struct GwSession
{
    std::uint16_t sid = 0;
    std::unique_ptr<GatewayClient> client;
    std::vector<std::string> keys;
    std::vector<std::uint64_t> issued; ///< newest SET counter per key
    std::vector<std::uint64_t> acked;  ///< newest acked SET counter
    std::vector<std::uint32_t> keyOf;  ///< SET counter -> key index
    std::uint64_t counter = 0;
    int inflight = 0;
    Rng rng;
    std::int64_t idleOffsetNs = 0; ///< start of its idle slot in a cycle
};

/** The load generator: every session, driven from the calling thread. */
class LoadGen
{
  public:
    LoadGen(const GwSpec &spec, std::uint64_t seed, std::uint16_t port)
        : spec_(spec), epollFd_(::epoll_create1(0))
    {
        Rng master(seed);
        sessions_.resize(static_cast<std::size_t>(spec.sessions));
        for (std::size_t i = 0; i < sessions_.size(); i++) {
            GwSession &s = sessions_[i];
            s.sid = static_cast<std::uint16_t>(i + 1);
            s.rng = master.split();
            GatewayClient::Config cc;
            cc.server = gateway::Endpoint::loopback(port);
            cc.sessionId = s.sid;
            s.client = std::make_unique<GatewayClient>(cc);
            for (std::size_t k = 0; k < spec.keysPerSession; k++)
                s.keys.push_back("s" + std::to_string(s.sid) + "k" +
                                 std::to_string(k));
            s.issued.assign(s.keys.size(), 0);
            s.acked.assign(s.keys.size(), 0);
            s.keyOf.reserve(1u << 20);
            s.keyOf.push_back(0); // counter 0 = the prefilled value
            if (spec.cycleNs > 0)
                s.idleOffsetNs = static_cast<std::int64_t>(i) * spec.cycleNs /
                                 spec.sessions;
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u32 = static_cast<std::uint32_t>(i);
            ::epoll_ctl(epollFd_, EPOLL_CTL_ADD,
                        s.client->transport().pollFd(), &ev);
        }
    }
    ~LoadGen() { ::close(epollFd_); }
    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** SET every key once (counter 0), eight in flight per session. */
    bool
    prefill()
    {
        constexpr std::size_t kBatch = 8;
        for (GwSession &s : sessions_) {
            for (std::size_t k = 0; k < s.keys.size(); k += kBatch) {
                for (std::size_t j = k; j < std::min(k + kBatch, s.keys.size());
                     j++)
                    s.client->execAsync(apps::Command{
                        {"SET", s.keys[j],
                         encodeValue(s.sid, 0, spec_.valueSize)}});
                if (!s.client->drainOutstanding(kDeadlineNs))
                    return false;
            }
        }
        return true;
    }

    /** Drive the workload until @p until; record into @p meter if set. */
    void run(std::int64_t until, WindowMeter *meter);

    /** Poll until nothing is in flight. @return requests left over. */
    std::uint64_t drain(std::int64_t timeout_ns);

    /** Read every key back through @p client; mismatches into report. */
    std::uint64_t verifyAll(GatewayClient &client, bool plant_wrong,
                            std::string *first_bad);

    void setCapture(Capture *cap) { capture_ = cap; }
    void
    resetWindowStats()
    {
        // Reserved up front: untouched pages stay out of the RSS, and
        // no doubling copy lands a step in the measured peak.
        constexpr std::size_t kSamples = 4u << 20;
        updLat_.clear();
        readLat_.clear();
        updLat_.reserve(kSamples);
        readLat_.reserve(kSamples);
        attempted_ = late_ = updates_ = userBytes_ = 0;
    }

    std::vector<GwSession> &sessions() { return sessions_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t late() const { return late_; }
    std::uint64_t updates() const { return updates_; }
    std::uint64_t userBytes() const { return userBytes_; }
    std::uint64_t badReads() const { return badReads_; }
    const std::string &firstBadRead() const { return firstBadRead_; }
    const std::vector<double> &updLat() const { return updLat_; }
    const std::vector<double> &readLat() const { return readLat_; }

  private:
    bool mayIssue(GwSession &s, std::int64_t now, std::int64_t *next_wake);
    void issue(GwSession &s, bool record);
    void complete(GwSession &s, std::int64_t issued_at, bool record,
                  bool update);
    void checkRead(GwSession &s, std::size_t idx, std::uint64_t floor,
                   const Bytes &wire);
    void
    pollSession(GwSession &s)
    {
        s.client->runtime().pollOnce(0);
    }

    GwSpec spec_;
    int epollFd_;
    std::vector<GwSession> sessions_;
    Capture *capture_ = nullptr;
    std::int64_t epoch_ = 0; ///< start of the idle schedule
    std::uint64_t completed_ = 0, attempted_ = 0, late_ = 0;
    std::uint64_t updates_ = 0, userBytes_ = 0, badReads_ = 0;
    std::string firstBadRead_;
    std::vector<double> updLat_, readLat_;
};

bool
LoadGen::mayIssue(GwSession &s, std::int64_t now, std::int64_t *next_wake)
{
    if (spec_.cycleNs == 0)
        return true;
    std::int64_t phase = (now - epoch_ - s.idleOffsetNs) % spec_.cycleNs;
    if (phase < 0)
        phase += spec_.cycleNs;
    if (phase >= spec_.idleNs)
        return true;
    *next_wake = std::min(*next_wake, now + spec_.idleNs - phase);
    return false;
}

void
LoadGen::issue(GwSession &s, bool record)
{
    std::size_t idx = s.rng.nextUInt(s.keys.size());
    std::int64_t t = wallNs();
    s.inflight++;
    if (record)
        attempted_++;
    Capture *cap = capture_ && capture_->on && !capture_->full() ? capture_
                                                                  : nullptr;
    if (s.rng.nextBool(spec_.updateRatio)) {
        std::uint64_t ctr = ++s.counter;
        s.issued[idx] = ctr;
        s.keyOf.push_back(static_cast<std::uint32_t>(idx));
        apps::Command cmd{{"SET", s.keys[idx],
                           encodeValue(s.sid, ctr, spec_.valueSize)}};
        if (record) {
            updates_++;
            userBytes_ += s.keys[idx].size() + spec_.valueSize;
        }
        Bytes wire = apps::encodeCommand(cmd);
        if (cap) {
            cap->requestFrames.push_back(wire);
            cap->requestSessions.push_back(s.sid);
        }
        s.client->lib().sendUpdate(
            std::move(wire), [this, &s, idx, ctr, t, record] {
                s.acked[idx] = std::max(s.acked[idx], ctr);
                complete(s, t, record, true);
            });
        return;
    }
    std::uint64_t floor = s.acked[idx];
    Bytes wire = apps::encodeCommand(apps::Command{{"GET", s.keys[idx]}});
    if (cap) {
        cap->requestFrames.push_back(wire);
        cap->requestSessions.push_back(s.sid);
    }
    s.client->lib().bypass(
        std::move(wire), [this, &s, idx, floor, t, record](const Bytes &resp) {
            checkRead(s, idx, floor, resp);
            complete(s, t, record, false);
        });
}

void
LoadGen::complete(GwSession &s, std::int64_t issued_at, bool record,
                  bool update)
{
    s.inflight--;
    completed_++;
    std::int64_t took = wallNs() - issued_at;
    if (!record)
        return;
    if (took > kDeadlineNs)
        late_++;
    (update ? updLat_ : readLat_).push_back(static_cast<double>(took) * 1e-3);
}

/**
 * P3 from outside: a GET returns the value of the newest SET acked
 * before it was issued (@p floor) or of a SET issued since, never an
 * older or foreign one, and the image must be intact.
 */
void
LoadGen::checkRead(GwSession &s, std::size_t idx, std::uint64_t floor,
                   const Bytes &wire)
{
    auto resp = apps::decodeResponse(wire);
    std::string why;
    unsigned sid = 0;
    unsigned long long ctr = 0;
    if (!resp || resp->status != apps::RespStatus::Ok) {
        why = "GET failed";
    } else if (std::sscanf(resp->value.c_str(), "v%u:%llu:", &sid, &ctr) != 2 ||
               sid != s.sid ||
               resp->value != encodeValue(s.sid, ctr, spec_.valueSize)) {
        why = "foreign or torn value";
    } else if (ctr < floor || ctr > s.issued[idx] ||
               (ctr != 0 && s.keyOf[ctr] != idx)) {
        why = "stale value " + std::to_string(ctr) + " (acked " +
              std::to_string(floor) + ", issued " +
              std::to_string(s.issued[idx]) + ")";
    }
    if (why.empty())
        return;
    if (badReads_++ == 0)
        firstBadRead_ = s.keys[idx] + ": " + why;
}

void
LoadGen::run(std::int64_t until, WindowMeter *meter)
{
    bool record = meter != nullptr;
    std::int64_t last_sweep = wallNs();
    if (epoch_ == 0)
        epoch_ = last_sweep;
    for (;;) {
        std::int64_t now = wallNs();
        if (now >= until)
            break;
        std::int64_t next_wake = now + 2 * kMs;
        for (GwSession &s : sessions_) {
            if (!mayIssue(s, now, &next_wake))
                continue;
            bool sent = false;
            while (s.inflight < spec_.window) {
                issue(s, record);
                sent = true;
            }
            if (sent)
                pollSession(s);
        }
        std::int64_t wait = std::max<std::int64_t>(
            0, std::min(next_wake, until) - wallNs());
        epoll_event events[8];
        int n = ::epoll_wait(epollFd_, events, 8,
                             static_cast<int>((wait + kMs - 1) / kMs));
        for (int i = 0; i < n; i++)
            pollSession(sessions_[events[i].data.u32]);
        now = wallNs();
        if (now - last_sweep >= 2 * kMs) {
            for (GwSession &s : sessions_)
                if (s.inflight > 0)
                    pollSession(s);
            last_sweep = now;
        }
        if (meter)
            meter->tick(completed_);
    }
}

std::uint64_t
LoadGen::drain(std::int64_t timeout_ns)
{
    std::int64_t deadline = wallNs() + timeout_ns;
    auto left = [this] {
        std::uint64_t n = 0;
        for (const GwSession &s : sessions_)
            n += static_cast<std::uint64_t>(s.inflight);
        return n;
    };
    while (left() > 0 && wallNs() < deadline) {
        epoll_event events[8];
        ::epoll_wait(epollFd_, events, 8, 1);
        for (GwSession &s : sessions_)
            if (s.inflight > 0)
                pollSession(s);
    }
    return left();
}

std::uint64_t
LoadGen::verifyAll(GatewayClient &client, bool plant_wrong,
                   std::string *first_bad)
{
    std::uint64_t bad = 0;
    for (GwSession &s : sessions_) {
        for (std::size_t k = 0; k < s.keys.size(); k++) {
            std::uint64_t expect = s.acked[k];
            if (plant_wrong && s.sid == 1 && k == 0)
                expect++;
            auto got = client.get(s.keys[k], kDeadlineNs);
            if (got && *got == encodeValue(s.sid, expect, spec_.valueSize))
                continue;
            if (bad++ == 0)
                *first_bad = s.keys[k] + " expected counter " +
                             std::to_string(expect) +
                             (got ? ", read " + got->substr(0, 24)
                                  : ", read nothing");
        }
    }
    return bad;
}

/** A fresh client session (ids above the load sessions) for checks. */
std::unique_ptr<GatewayClient>
checkClient(std::uint16_t port, std::uint16_t sid)
{
    GatewayClient::Config cc;
    cc.server = gateway::Endpoint::loopback(port);
    cc.sessionId = sid;
    return std::make_unique<GatewayClient>(cc);
}

struct Counters
{
    obs::Json daemon, daemonPool, clients, clientPool;
    std::uint64_t clientEvents = 0;
    std::int64_t daemonCpu = 0, loadCpu = 0, wall = 0;
    ProcIo io;
    std::uint64_t journalBytes = 0;
    obs::FlightRecorder::Accum accum;
};

} // namespace

Report
runGatewayWorkload(const Options &opt, bool durable)
{
    const GwSpec spec = specFor(durable);
    Report report;
    const std::string data_dir = opt.workDir + "/gw-data";
    const std::string journal = data_dir + "/log.journal";

    GatewayServer::Config config;
    if (durable)
        config.dataDir = data_dir;

    // Set up several times; keep the last daemon + sessions for the run.
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<LoadGen> gen;
    std::vector<double> setup_s, construct_s, warmup_s;
    double daemon_construct_s = 0;
    for (int k = 0; k < kSetups; k++) {
        if (gen)
            gen->drain(kDeadlineNs);
        gen.reset();
        daemon.reset();
        removeTree(data_dir);
        if (durable)
            makeDirs(data_dir);

        std::int64_t t0 = wallNs();
        daemon = std::make_unique<Daemon>(config);
        daemon_construct_s = daemon->start();
        gen = std::make_unique<LoadGen>(spec, opt.seed, daemon->port());
        std::int64_t t1 = wallNs();
        if (!gen->prefill()) {
            report.check("prefill", false, "a prefill SET timed out");
            return report;
        }
        gen->run(wallNs() + static_cast<std::int64_t>(spec.warmupS * 1e9),
                 nullptr);
        std::int64_t t2 = wallNs();
        setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
        construct_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        warmup_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    }

    // The client side's counters, registered on this (the load) thread.
    obs::MetricRegistry client_metrics, client_pool;
    for (GwSession &s : gen->sessions())
        s.client->lib().registerMetrics(client_metrics,
                                        "client" + std::to_string(s.sid));
    net::PacketPool::local().registerMetrics(client_pool, "packetPool");

    auto snapshot = [&](Counters &c) {
        daemon->paused([&](GatewayServer &srv, obs::MetricRegistry &pool) {
            c.daemon = srv.metrics().toJson();
            c.daemonPool = pool.toJson();
            c.accum = srv.recorder().accum();
            srv.recorder().resetAccum();
            srv.recorder().setAccumulating(true);
        });
        c.clients = client_metrics.toJson();
        c.clientPool = client_pool.toJson();
        c.clientEvents = 0;
        for (GwSession &s : gen->sessions())
            c.clientEvents += s.client->runtime().eventsFired;
        c.daemonCpu = threadCpuNs(daemon->threadHandle());
        c.loadCpu = threadCpuNs();
        c.wall = wallNs();
        c.io = procIo();
        c.journalBytes = fileSize(journal);
    };

    // Untraced window (the whole run, or its first half when tracing).
    double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    gen->resetWindowStats();
    WindowMeter meter(window_s);
    meter.begin(gen->completed());
    gen->run(meter.endAt(), &meter);
    meter.end(gen->completed());
    // Peak RSS of the workload itself, before the checks' restart
    // replays the journal into memory.
    double peak_rss = peakRssMib();
    std::uint64_t attempted = gen->attempted();
    std::uint64_t failed = gen->late();
    std::vector<double> upd = gen->updLat(), rd = gen->readLat();

    Capture cap;
    Counters before, after;
    WindowMeter traced(window_s);
    if (opt.trace) {
        for (GwSession &s : gen->sessions()) {
            GatewayClient *client = s.client.get();
            client->transport().setReceive(
                [&cap, client](const gateway::Endpoint &from,
                               const std::uint8_t *data, std::size_t len) {
                    if (cap.on && cap.responseFrames.size() < Capture::kCap)
                        cap.responseFrames.emplace_back(data, data + len);
                    client->bridge().onDatagram(from, data, len);
                });
        }
        gen->setCapture(&cap);
        snapshot(before);
        gen->resetWindowStats();
        cap.on = true;
        traced.begin(gen->completed());
        gen->run(traced.endAt(), &traced);
        traced.end(gen->completed());
        cap.on = false;
        snapshot(after);
        attempted += gen->attempted();
        failed += gen->late();
    }
    std::uint64_t traced_updates = gen->updates();
    std::uint64_t traced_user_bytes = gen->userBytes();
    std::vector<double> traced_upd = gen->updLat(), traced_rd = gen->readLat();

    // ---------------------------------------------------- correctness
    std::uint64_t stuck = gen->drain(kDeadlineNs);
    failed += stuck;
    report.check("window_reads_fresh", gen->badReads() == 0,
                 gen->badReads() == 0
                     ? "every GET returned an acked-or-newer value"
                     : std::to_string(gen->badReads()) + " bad GETs, first " +
                           gen->firstBadRead());
    report.check("drained", stuck == 0,
                 std::to_string(stuck) + " requests still in flight after 1 s");
    {
        auto verifier = checkClient(daemon->port(), 50);
        std::string first;
        std::uint64_t bad = gen->verifyAll(*verifier, opt.wrongExpectation &&
                                                          !durable,
                                           &first);
        report.check("readback", bad == 0,
                     bad == 0 ? "every key reads its last acked value"
                              : std::to_string(bad) + " keys wrong, first " +
                                    first);
    }
    double restart_s = daemon_construct_s;
    if (durable) {
        // Kill (no syncDurable), reopen on the same directory, read back.
        daemon->stop();
        daemon = std::make_unique<Daemon>(config);
        restart_s = daemon->start();
        auto verifier = checkClient(daemon->port(), 51);
        std::string first;
        std::uint64_t missing =
            gen->verifyAll(*verifier, opt.wrongExpectation, &first);
        failed += missing;
        report.check("restart_readback", missing == 0,
                     missing == 0
                         ? "every acked key survives the kill + restart (P1)"
                         : std::to_string(missing) + " acked keys lost, first " +
                               first);
    }
    gen.reset();
    daemon.reset();
    removeTree(data_dir);

    report.attempted = attempted;
    report.failed = failed;

    // ------------------------------------------------------ end to end
    if (!opt.trace) {
        report.e2e.set("ops_per_s", meter.opsPerSecond());
        report.e2e.set("cpu_us_per_op", meter.cpuUsPerOp());
        report.e2e.set("setup_s", median(setup_s));
        report.e2e.set("peak_rss_mib", peak_rss);
        report.e2e.set("update_p50_us", median(upd));
        report.e2e.set("read_p50_us", median(rd));
        return report;
    }

    // -------------------------------------------------------- per layer
    double ops = static_cast<double>(std::max<std::uint64_t>(traced.ops(), 1));
    double updates = static_cast<double>(std::max<std::uint64_t>(traced_updates, 1));
    double wall = static_cast<double>(after.wall - before.wall);
    double daemon_cpu = static_cast<double>(after.daemonCpu - before.daemonCpu);
    Figures &L = report.layer;
    L.set("ops", static_cast<std::uint64_t>(traced.ops()));
    L.set("updates", traced_updates);
    L.set("untraced_cpu_us_per_op", meter.cpuUsPerOp());
    L.set("traced_cpu_us_per_op", traced.cpuUsPerOp());
    L.set("gateway.daemon_cpu_us_per_op", daemon_cpu * 1e-3 / ops);
    L.set("gateway.daemon_busy_ratio", daemon_cpu / wall);
    L.set("gateway.client_cpu_us_per_op",
          static_cast<double>(after.loadCpu - before.loadCpu) * 1e-3 / ops);
    L.set("gateway.file_writes_per_update",
          static_cast<double>(after.io.syscw - before.io.syscw) / updates);
    L.set("gateway.file_bytes_per_user_byte",
          static_cast<double>(after.io.wchar - before.io.wchar) /
              static_cast<double>(std::max<std::uint64_t>(traced_user_bytes, 1)));
    if (durable)
        L.set("gateway.journal_bytes_per_update",
              static_cast<double>(after.journalBytes - before.journalBytes) /
                  updates);
    L.set("gateway.restart_s", restart_s);
    L.set("stack.update_p99_us", quantile(traced_upd, 0.99));
    L.set("stack.read_p99_us", quantile(traced_rd, 0.99));
    const obs::FlightRecorder::Accum &acc = after.accum;
    double traces = static_cast<double>(std::max<std::uint64_t>(acc.count, 1));
    L.set("obs.device_persist_us",
          static_cast<double>(acc.sums.devicePersist) * 1e-3 / traces);
    L.set("obs.server_us", static_cast<double>(acc.sums.server) * 1e-3 / traces);
    L.set("client_events", after.clientEvents - before.clientEvents);
    L.set("wall_ns", wall);
    L.set("testbed.construct_s", median(construct_s));
    L.set("testbed.warmup_s", median(warmup_s));
    L.set("sim.engine_windows_per_op", 0.0);

    obs::Json &C = report.counters;
    auto pair = [](const obs::Json &a, const obs::Json &b) {
        obs::Json j = obs::Json::object();
        j.set("before", a);
        j.set("after", b);
        return j;
    };
    C.set("daemon", pair(before.daemon, after.daemon));
    C.set("daemon_pool", pair(before.daemonPool, after.daemonPool));
    C.set("clients", pair(before.clients, after.clients));
    C.set("client_pool", pair(before.clientPool, after.clientPool));

    ReplaySpec rs;
    rs.storeKind = kv::KvKind::Hashmap;
    rs.poolBytes = config.heapBytes;
    rs.workDir = opt.workDir;
    replayLayers(cap, rs, L);
    return report;
}

} // namespace perfbench
