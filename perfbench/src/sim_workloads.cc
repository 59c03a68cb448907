/**
 * @file
 * sim_cached_replicated and sim_sharded_lossy: a testbed::Testbed in
 * PmnetSwitch mode driven by the benchmark's own apps::Workload.
 *
 * Every session owns a disjoint key range and writes values that
 * encode (session, counter), so the final store contents can be
 * checked against what each session last issued. The workload also
 * stamps wall time at each issue: in the closed loop the next issue
 * follows a completion immediately, so the stamp-to-stamp gap is the
 * wall time the simulator took to carry that request; in the open
 * loop it is the wall time of one issue gap.
 */

#include <algorithm>
#include <memory>

#include "apps/kv_protocol.h"
#include "common/rng.h"
#include "net/impairment.h"
#include "net/link.h"
#include "sim/parallel.h"
#include "testbed/system.h"
#include "workloads.h"

namespace perfbench {

using namespace pmnet;

namespace {

constexpr int kSetups = 3;

struct SimSpec
{
    bool sharded;
    int clients;
    std::size_t keysPerSession;
    std::size_t valueSize;
    double updateRatio;
    bool prefill;
    TickDelta warmup;
    TickDelta chunk; ///< simulated time per Testbed::runFor call
};

SimSpec
specFor(bool sharded)
{
    if (sharded)
        return {true, 64, 512, 100, 0.5, false, milliseconds(5),
                microseconds(500)};
    return {false, 64, 1000, 100, 0.5, true, milliseconds(5),
            milliseconds(1)};
}

struct SimSession
{
    std::uint16_t sid = 0;
    std::unique_ptr<ZipfianGenerator> zipf;
    std::uint64_t counter = 0;
    std::vector<std::int64_t> expect; ///< -1 absent, else SET counter
    std::int64_t lastIssueNs = 0;
    bool lastWasUpdate = false;
    std::uint64_t issued = 0;
    std::vector<double> updLat, readLat;
    std::vector<Bytes> captured;
};

/**
 * State shared by every session's workload. Each session touches only
 * its own SimSession, so engine workers never share a cache line of
 * bookkeeping; the flags are flipped only between Testbed::runFor
 * calls, when no worker runs.
 */
struct SimShared
{
    SimSpec spec;
    std::vector<std::unique_ptr<SimSession>> sessions; ///< index = sid
    bool measuring = false;
    bool capturing = false;
    std::size_t capPerSession = 0;

    static std::string
    key(std::uint16_t sid, std::size_t idx)
    {
        return "s" + std::to_string(sid) + "k" + std::to_string(idx);
    }
};

class BenchWorkload : public apps::Workload
{
  public:
    BenchWorkload(SimShared &shared, SimSession *session)
        : sh_(shared), s_(session)
    {
    }

    std::vector<apps::Command>
    nextTransaction(Rng &rng) override
    {
        std::int64_t now = wallNs();
        if (sh_.measuring) {
            s_->issued++;
            if (s_->lastIssueNs != 0)
                (s_->lastWasUpdate ? s_->updLat : s_->readLat)
                    .push_back(static_cast<double>(now - s_->lastIssueNs) *
                               1e-3);
        }
        s_->lastIssueNs = now;
        std::size_t idx = s_->zipf->next(rng);
        apps::Command cmd;
        if (rng.nextBool(sh_.spec.updateRatio)) {
            std::uint64_t ctr = ++s_->counter;
            s_->expect[idx] = static_cast<std::int64_t>(ctr);
            cmd.args = {"SET", SimShared::key(s_->sid, idx),
                        encodeValue(s_->sid, ctr, sh_.spec.valueSize)};
            s_->lastWasUpdate = true;
        } else {
            cmd.args = {"GET", SimShared::key(s_->sid, idx)};
            s_->lastWasUpdate = false;
        }
        if (sh_.capturing && s_->captured.size() < sh_.capPerSession)
            s_->captured.push_back(apps::encodeCommand(cmd));
        return {std::move(cmd)};
    }

    void
    populate(apps::CommandStore &store, Rng &) override
    {
        if (!sh_.spec.prefill)
            return;
        for (std::size_t sid = 1; sid < sh_.sessions.size(); sid++)
            for (std::size_t k = 0; k < sh_.spec.keysPerSession; k++)
                store.execute(
                    apps::Command{{"SET",
                                   SimShared::key(static_cast<std::uint16_t>(sid), k),
                                   encodeValue(static_cast<std::uint16_t>(sid),
                                               0, sh_.spec.valueSize)}},
                    0);
    }

    std::string name() const override { return "perfbench"; }

  private:
    SimShared &sh_;
    SimSession *s_;
};

void
resetSessions(SimShared &sh)
{
    sh.sessions.clear();
    sh.sessions.resize(static_cast<std::size_t>(sh.spec.clients) + 1);
    for (std::size_t sid = 1; sid < sh.sessions.size(); sid++) {
        auto s = std::make_unique<SimSession>();
        s->sid = static_cast<std::uint16_t>(sid);
        s->zipf = std::make_unique<ZipfianGenerator>(sh.spec.keysPerSession);
        s->expect.assign(sh.spec.keysPerSession, sh.spec.prefill ? 0 : -1);
        sh.sessions[sid] = std::move(s);
    }
}

testbed::TestbedConfig
configFor(SimShared &sh, std::uint64_t seed)
{
    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = sh.spec.clients;
    config.replicationDegree = 2;
    config.serverKind = testbed::ServerKind::CommandStore;
    config.seed = seed;
    if (sh.spec.sharded) {
        config.shards = 4;
        config.storeKind = kv::KvKind::BTree;
        config.openLoopGap = microseconds(50);
        config.simThreads = 1;
        // Lossy server links need the device's stale-log re-forward
        // (off by default): without it an early-acked update lost on
        // its way to the server is never applied when no later update
        // of its session reveals the gap. Same setting as the
        // scenario matrix's lossy rows.
        config.device.reforwardAge = microseconds(400);
    } else {
        config.storeKind = kv::KvKind::Hashmap;
        config.cacheEnabled = true;
    }
    config.workload = [&sh](std::uint16_t session) {
        SimSession *s = session < sh.sessions.size()
                            ? sh.sessions[session].get()
                            : nullptr;
        return std::make_unique<BenchWorkload>(sh, s);
    };
    return config;
}

/** Light Gilbert-Elliott burst loss, both directions of every
 *  shard's tail-device <-> server link. */
void
impairServerLinks(testbed::Testbed &bed)
{
    net::Impairment imp;
    std::string error;
    parseImpairment("ge 0.5% 30% 20%", &imp, &error);
    for (unsigned s = 0; s < bed.shardCount(); s++) {
        stack::Host &server = bed.serverHost(s);
        pmnetdev::PmnetDevice &tail =
            bed.shardDevice(s, bed.shardDeviceCount(s) - 1);
        for (int p = 0; p < server.portCount(); p++) {
            net::Link *link = server.linkAt(p);
            if (!link)
                continue;
            link->setImpairment(server, imp);
            link->setImpairment(tail, imp);
        }
    }
}

std::uint64_t
eventsOf(testbed::Testbed &bed)
{
    return bed.engine() ? bed.engine()->eventsExecuted()
                        : bed.simulator().eventsExecuted();
}

std::uint64_t
outstanding(testbed::Testbed &bed)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < bed.clientCount(); i++)
        n += bed.clientLib(i).outstanding();
    return n;
}

} // namespace

Report
runSimWorkload(const Options &opt, bool sharded)
{
    SimShared sh;
    sh.spec = specFor(sharded);
    Report report;

    std::unique_ptr<testbed::Testbed> bed;
    std::vector<double> setup_s, construct_s, warmup_s;
    for (int k = 0; k < kSetups; k++) {
        bed.reset();
        resetSessions(sh);
        std::int64_t t0 = wallNs();
        bed = std::make_unique<testbed::Testbed>(configFor(sh, opt.seed));
        if (sharded)
            impairServerLinks(*bed);
        std::int64_t t1 = wallNs();
        bed->startDrivers();
        bed->runFor(sh.spec.warmup);
        std::int64_t t2 = wallNs();
        setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
        construct_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        warmup_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    }

    auto window = [&](WindowMeter &meter) {
        for (std::size_t sid = 1; sid < sh.sessions.size(); sid++) {
            SimSession &s = *sh.sessions[sid];
            s.lastIssueNs = 0;
            s.updLat.clear();
            s.readLat.clear();
        }
        sh.measuring = true;
        meter.begin(bed->totalCompleted());
        while (!meter.expired()) {
            bed->runFor(sh.spec.chunk);
            meter.tick(bed->totalCompleted());
        }
        meter.end(bed->totalCompleted());
        sh.measuring = false;
    };
    auto latencies = [&](bool update) {
        std::vector<double> all;
        for (std::size_t sid = 1; sid < sh.sessions.size(); sid++) {
            const auto &v = update ? sh.sessions[sid]->updLat
                                   : sh.sessions[sid]->readLat;
            all.insert(all.end(), v.begin(), v.end());
        }
        return all;
    };

    double window_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    WindowMeter meter(window_s);
    window(meter);
    double peak_rss = peakRssMib();
    std::vector<double> upd = latencies(true), rd = latencies(false);

    WindowMeter traced(window_s);
    obs::Json reg_before, reg_after;
    std::uint64_t ev0 = 0, ev1 = 0, win0 = 0, win1 = 0;
    std::vector<double> tupd, trd;
    if (opt.trace) {
        sh.capturing = true;
        sh.capPerSession = Capture::kCap / static_cast<std::size_t>(sh.spec.clients);
        reg_before = bed->metrics().toJson();
        ev0 = eventsOf(*bed);
        win0 = bed->engine() ? bed->engine()->windows() : 0;
        window(traced);
        ev1 = eventsOf(*bed);
        win1 = bed->engine() ? bed->engine()->windows() : 0;
        reg_after = bed->metrics().toJson();
        sh.capturing = false;
        tupd = latencies(true);
        trd = latencies(false);
    }

    // ------------------------------------------- drain, then check
    for (std::size_t i = 0; i < bed->clientCount(); i++)
        bed->driver(i).stop();
    std::int64_t wall_deadline = wallNs() + 20'000'000'000;
    Tick sim_deadline = bed->now() + milliseconds(200);
    while (outstanding(*bed) > 0 && bed->now() < sim_deadline &&
           wallNs() < wall_deadline)
        bed->runFor(milliseconds(1));
    std::uint64_t stuck = outstanding(*bed);
    // Let servers apply what devices acked early (and re-forward).
    bed->runFor(milliseconds(20));

    std::uint64_t attempted = 0;
    for (std::size_t sid = 1; sid < sh.sessions.size(); sid++)
        attempted += sh.sessions[sid]->issued;
    report.attempted = attempted;
    report.failed = stuck;
    report.check("drained", stuck == 0,
                 std::to_string(stuck) +
                     " requests outstanding 200 ms (simulated) after stop");

    pmnet::ShardMap *map = bed->shardMap();
    std::uint64_t wrong = 0, misplaced = 0;
    std::string first;
    for (std::size_t sid = 1; sid < sh.sessions.size(); sid++) {
        SimSession &s = *sh.sessions[sid];
        for (std::size_t k = 0; k < s.expect.size(); k++) {
            std::string key = SimShared::key(s.sid, k);
            std::int64_t expect = s.expect[k];
            if (opt.wrongExpectation && sid == 1 && k == 0)
                expect++;
            apps::Command get{{"GET", key}};
            unsigned owner =
                map ? map->ownerOf(testbed::ClientDriver::commandKeyHash(get))
                    : 0;
            for (unsigned shard = 0; shard < bed->shardCount(); shard++) {
                auto r = bed->commandStore(shard)->execute(get, 0);
                bool present = r.status == apps::RespStatus::Ok;
                if (shard != owner) {
                    if (present && misplaced++ == 0 && first.empty())
                        first = key + " also held by shard " +
                                std::to_string(shard);
                    continue;
                }
                bool ok = expect < 0
                              ? !present
                              : present &&
                                    r.value ==
                                        encodeValue(s.sid,
                                                    static_cast<std::uint64_t>(expect),
                                                    sh.spec.valueSize);
                if (!ok && wrong++ == 0)
                    first = key + " expected counter " + std::to_string(expect) +
                            (present ? ", store holds " + r.value.substr(0, 24)
                                     : ", store has no value");
            }
        }
    }
    report.check("final_store", wrong == 0 && misplaced == 0,
                 wrong == 0 && misplaced == 0
                     ? "every key holds its session's last issued value, "
                       "on its owning shard only"
                     : std::to_string(wrong) + " wrong, " +
                           std::to_string(misplaced) + " misplaced, first " +
                           first);

    std::uint64_t pool_bytes = bed->config().heapBytes;
    kv::KvKind kind = bed->config().storeKind;
    Capture cap;
    for (std::size_t sid = 1; sid < sh.sessions.size(); sid++)
        for (Bytes &b : sh.sessions[sid]->captured) {
            cap.requestFrames.push_back(std::move(b));
            cap.requestSessions.push_back(static_cast<std::uint16_t>(sid));
        }
    bed.reset();

    if (!opt.trace) {
        report.e2e.set("ops_per_s", meter.opsPerSecond());
        report.e2e.set("cpu_us_per_op", meter.cpuUsPerOp());
        report.e2e.set("setup_s", median(setup_s));
        report.e2e.set("peak_rss_mib", peak_rss);
        report.e2e.set("update_p50_us", median(upd));
        report.e2e.set("read_p50_us", median(rd));
        return report;
    }

    Figures &L = report.layer;
    double ops = static_cast<double>(std::max<std::uint64_t>(traced.ops(), 1));
    double wall_ns = traced.wallSeconds() * 1e9;
    double events = static_cast<double>(ev1 - ev0);
    L.set("ops", static_cast<std::uint64_t>(traced.ops()));
    L.set("untraced_cpu_us_per_op", meter.cpuUsPerOp());
    L.set("traced_cpu_us_per_op", traced.cpuUsPerOp());
    L.set("sim.events_per_op", events / ops);
    L.set("sim.wall_ns_per_event", events > 0 ? wall_ns / events : 0.0);
    L.set("sim.engine_windows_per_op", static_cast<double>(win1 - win0) / ops);
    L.set("testbed.construct_s", median(construct_s));
    L.set("testbed.warmup_s", median(warmup_s));
    L.set("stack.update_p99_us", quantile(tupd, 0.99));
    L.set("stack.read_p99_us", quantile(trd, 0.99));

    obs::Json pair = obs::Json::object();
    pair.set("before", reg_before);
    pair.set("after", reg_after);
    report.counters.set("testbed", pair);

    ReplaySpec rs;
    rs.storeKind = kind;
    rs.poolBytes = pool_bytes;
    rs.workDir = opt.workDir;
    replayLayers(cap, rs, L);
    return report;
}

} // namespace perfbench
