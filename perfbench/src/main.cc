/**
 * @file
 * perfbench — one run of one workload of the wall-clock benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--wrong-expectation] [--work-dir DIR]
 *
 * Prints one JSON object: the run's operation counts, its correctness
 * checks, and its raw measurements (end-to-end figures when untraced;
 * per-layer figures and counter trees when traced). perfbench/run.py
 * turns that into the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--wrong-expectation] [--work-dir DIR]\n"
                 "workloads: gw_durable_mixed gw_volatile_read "
                 "sim_cached_replicated sim_sharded_lossy\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--wrong-expectation") {
            opt.wrongExpectation = true;
        } else if (!next) {
            return usage();
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--work-dir") {
            opt.workDir = argv[++i];
        } else {
            return usage();
        }
    }
    if (opt.seconds <= 0)
        return usage();
    makeDirs(opt.workDir);

    Report report;
    if (opt.workload == "gw_durable_mixed")
        report = runGatewayWorkload(opt, true);
    else if (opt.workload == "gw_volatile_read")
        report = runGatewayWorkload(opt, false);
    else if (opt.workload == "sim_cached_replicated")
        report = runSimWorkload(opt, false);
    else if (opt.workload == "sim_sharded_lossy")
        report = runSimWorkload(opt, true);
    else
        return usage();

    using pmnet::obs::Json;
    Json checks = Json::array();
    for (const Report::Check &c : report.checks) {
        Json j = Json::object();
        j.set("name", c.name);
        j.set("ok", c.ok);
        j.set("detail", c.detail);
        checks.push(std::move(j));
    }
    std::printf("{\"workload\": \"%s\", \"correct\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, \"checks\": %s, "
                "\"e2e\": %s, \"layer\": %s, \"counters\": %s}\n",
                opt.workload.c_str(), report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                checks.dump().c_str(), report.e2e.json().c_str(),
                report.layer.json().c_str(), report.counters.dump().c_str());
    return 0;
}
