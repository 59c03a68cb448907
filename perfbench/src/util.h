/**
 * @file
 * Shared plumbing of the wall-clock benchmark: command-line options,
 * process/thread clocks, /proc readers, window metering and the raw
 * report every workload fills in.
 *
 * Every time here is wall or CPU time of this process on the host it
 * runs on. Modeled simulator ticks never enter a report as a metric.
 */

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "obs/json.h"

namespace perfbench {

/** Parsed command line of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test: plant one wrong expectation in the correctness check. */
    bool wrongExpectation = false;
    /** Scratch directory inside the checkout for data dirs and replays. */
    std::string workDir = ".bench_work";
};

/** @name Clocks (nanoseconds)
 *  @{
 */
std::int64_t wallNs();                     ///< CLOCK_MONOTONIC
std::int64_t processCpuNs();               ///< user + sys, all threads
std::int64_t threadCpuNs();                ///< calling thread only
std::int64_t threadCpuNs(unsigned long pthread_id); ///< another thread
/** @} */

/** @name /proc/self readers
 *  @{
 */
double peakRssMib();    ///< VmHWM
double currentRssMib(); ///< VmRSS
struct ProcIo
{
    std::uint64_t syscw = 0; ///< write-class syscalls
    std::uint64_t wchar = 0; ///< bytes handed to them
};
ProcIo procIo();
std::uint64_t fileSize(const std::string &path);
/** @} */

/** Median / quantile of a sample set (copies; q in [0, 1]). */
double quantile(std::vector<double> values, double q);
double median(const std::vector<double> &values);

/**
 * Meters one timed window: total completions and wall time, plus
 * twenty equal slices whose median rate and CPU per operation are the
 * reported figures. A slice is long enough to average out the durable
 * path's millisecond-scale stalls, and a slice disturbed by another
 * tenant of the host moves one sample, not the result.
 */
class WindowMeter
{
  public:
    explicit WindowMeter(double seconds);

    void begin(std::uint64_t completed);
    /** Close a slice when its length has passed. Call often. */
    void tick(std::uint64_t completed);
    void end(std::uint64_t completed);

    bool expired() const { return wallNs() >= endAt_; }
    std::int64_t endAt() const { return endAt_; }

    std::uint64_t ops() const { return ops_; }
    double wallSeconds() const { return wallTotal_ * 1e-9; }
    /** Median slice throughput, operations per wall second. */
    double opsPerSecond() const;
    /** Median slice CPU (µs) per operation. */
    double cpuUsPerOp() const;

  private:
    void closeSlice(std::uint64_t completed, std::int64_t now);

    std::int64_t lengthNs_;
    std::int64_t sliceNs_;
    std::int64_t endAt_ = 0;
    std::int64_t start_ = 0;
    std::int64_t sliceStart_ = 0, sliceCpu_ = 0;
    std::uint64_t sliceOps_ = 0, startOps_ = 0, ops_ = 0;
    std::int64_t wallTotal_ = 0;
    std::vector<double> rates_, cpuPerOp_;
};

/** Ordered name -> value figures, printed with every digit. */
class Figures
{
  public:
    void set(const std::string &name, double value);
    bool has(const std::string &name) const;
    /** `{"name": value, ...}` with values in %.17g. */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, double>> items_;
};

/** What one workload run hands back to main(). */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Correctness checks: name -> passed (with a detail line). */
    struct Check
    {
        std::string name;
        bool ok = true;
        std::string detail;
    };
    std::vector<Check> checks;
    /** Untraced end-to-end figures. */
    Figures e2e;
    /**
     * Traced runs: per-layer figures (dotted names) and the raw
     * operation counts run.py divides counter deltas by (plain names).
     */
    Figures layer;
    /** Raw counter trees (registry before/after) for run.py. */
    pmnet::obs::Json counters = pmnet::obs::Json::object();

    void check(std::string name, bool ok, std::string detail);
    bool correct() const;
};

/** Inputs captured in a traced window, replayed through the layers. */
struct Capture
{
    static constexpr std::size_t kCap = 20000;
    std::vector<pmnet::Bytes> requestFrames;  ///< encoded commands
    std::vector<std::uint16_t> requestSessions;
    std::vector<pmnet::Bytes> responseFrames; ///< datagrams received
    bool on = false;

    bool full() const { return requestFrames.size() >= kCap; }
};

/** Value image of (session, counter), padded to @p size bytes. */
std::string encodeValue(std::uint16_t session, std::uint64_t counter,
                        std::size_t size);

/** Recursively remove @p path (ignores absence). */
void removeTree(const std::string &path);
/** mkdir -p. */
void makeDirs(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
