#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
Rng::next()
{
    uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform(double lo, double hi)
{
    double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

size_t
Rng::index(size_t n)
{
    return static_cast<size_t>(next() % n);
}

uint64_t
deriveSeed(uint64_t seed, const std::string &purpose)
{
    uint64_t h = 1469598103934665603ULL;
    for (char c : purpose) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    Rng rng(seed ^ h);
    return rng.next();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    // VmHWM belongs to this process image. getrusage's ru_maxrss
    // survives execve, so under a launcher it can report the
    // launcher's peak instead; it is only the fallback.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

bool
closeRel(double a, double b, double rel)
{
    return std::fabs(a - b) <=
           rel * std::max(std::fabs(a), std::fabs(b));
}

void
Outcome::fail(const std::string &message)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(message);
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    metrics.push_back({name, value, unit});
}

std::string
Outcome::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : -1.0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
