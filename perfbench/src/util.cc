#include "util.h"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** The "<key>: <n> kB" line of /proc/self/status, in MiB. */
double
statusMib(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    std::size_t klen = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, klen, key) == 0 && line.size() > klen &&
            line[klen] == ':')
            return std::stod(line.substr(klen + 1)) / 1024.0;
    }
    return 0;
}

} // namespace

std::int64_t wallNs() { return clockNs(CLOCK_MONOTONIC); }

std::int64_t
processCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(tv.tv_usec) * 1000;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

std::int64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t
threadCpuNs(unsigned long pthread_id)
{
    clockid_t id;
    if (pthread_getcpuclockid(static_cast<pthread_t>(pthread_id), &id) != 0)
        return 0;
    return clockNs(id);
}

double peakRssMib() { return statusMib("VmHWM"); }
double currentRssMib() { return statusMib("VmRSS"); }

ProcIo
procIo()
{
    ProcIo io;
    std::ifstream in("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "syscw:")
            io.syscw = value;
        else if (key == "wchar:")
            io.wchar = value;
    }
    return io;
}

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<std::uint64_t>(st.st_size)
               : 0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double> &values) { return quantile(values, 0.5); }

// ------------------------------------------------------------ WindowMeter

WindowMeter::WindowMeter(double seconds)
    : lengthNs_(static_cast<std::int64_t>(seconds * 1e9)),
      sliceNs_(std::max<std::int64_t>(lengthNs_ / 20, 100'000'000))
{
}

void
WindowMeter::begin(std::uint64_t completed)
{
    start_ = sliceStart_ = wallNs();
    sliceCpu_ = processCpuNs();
    startOps_ = sliceOps_ = completed;
    endAt_ = start_ + lengthNs_;
}

void
WindowMeter::closeSlice(std::uint64_t completed, std::int64_t now)
{
    std::int64_t cpu = processCpuNs();
    std::uint64_t ops = completed - sliceOps_;
    double wall = static_cast<double>(now - sliceStart_) * 1e-9;
    if (ops > 0 && wall > 0) {
        rates_.push_back(static_cast<double>(ops) / wall);
        cpuPerOp_.push_back(static_cast<double>(cpu - sliceCpu_) * 1e-3 /
                            static_cast<double>(ops));
    }
    sliceStart_ = now;
    sliceCpu_ = cpu;
    sliceOps_ = completed;
}

void
WindowMeter::tick(std::uint64_t completed)
{
    std::int64_t now = wallNs();
    if (now - sliceStart_ >= sliceNs_)
        closeSlice(completed, now);
}

void
WindowMeter::end(std::uint64_t completed)
{
    std::int64_t now = wallNs();
    // A short tail slice would be the noisiest sample; fold it only
    // when nothing was sliced yet.
    if (rates_.empty())
        closeSlice(completed, now);
    ops_ = completed - startOps_;
    wallTotal_ = now - start_;
    std::fprintf(stderr,
                 "window: %zu slices, ops/s min %.0f q1 %.0f median %.0f "
                 "q3 %.0f max %.0f; cpu us/op q1 %.3f median %.3f q3 %.3f\n",
                 rates_.size(), quantile(rates_, 0), quantile(rates_, 0.25),
                 quantile(rates_, 0.5), quantile(rates_, 0.75),
                 quantile(rates_, 1), quantile(cpuPerOp_, 0.25),
                 quantile(cpuPerOp_, 0.5), quantile(cpuPerOp_, 0.75));
}

double WindowMeter::opsPerSecond() const { return median(rates_); }
double WindowMeter::cpuUsPerOp() const { return median(cpuPerOp_); }

// ---------------------------------------------------------------- Figures

void
Figures::set(const std::string &name, double value)
{
    for (auto &item : items_)
        if (item.first == name) {
            item.second = value;
            return;
        }
    items_.emplace_back(name, value);
}

bool
Figures::has(const std::string &name) const
{
    for (const auto &item : items_)
        if (item.first == name)
            return true;
    return false;
}

std::string
Figures::json() const
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); i++) {
        std::snprintf(buf, sizeof(buf), "%.17g", items_[i].second);
        out += (i ? ", \"" : "\"") + items_[i].first + "\": " + buf;
    }
    return out + "}";
}

// ----------------------------------------------------------------- Report

void
Report::check(std::string name, bool ok, std::string detail)
{
    checks.push_back({std::move(name), ok, std::move(detail)});
}

bool
Report::correct() const
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check &c) { return c.ok; });
}

// ------------------------------------------------------------------ misc

std::string
encodeValue(std::uint16_t session, std::uint64_t counter, std::size_t size)
{
    std::string value = "v" + std::to_string(session) + ":" +
                        std::to_string(counter) + ":";
    // Filler depends on the counter so a torn or mixed-up value shows.
    char fill = static_cast<char>('a' + counter % 26);
    if (value.size() < size)
        value.append(size - value.size(), fill);
    return value;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
}

} // namespace perfbench
