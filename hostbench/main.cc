/**
 * @file
 * hostbench: one benchmark for the simulator's host cost.
 *
 *     hostbench --workload pump|stack|traffic|check --seed N
 *               --seconds S --trace 0|1 [--spans-out PATH]
 *               [--source-id ID]
 *
 * Untraced (--trace 0): sets the workload up, runs one untimed
 * reference batch (oracles, deterministic counts, digest), then
 * measures batches for S seconds and prints the end-to-end metrics.
 * Traced (--trace 1): repeats every workload with spans recorded
 * around each layer call, prints the per-layer metrics, the span
 * self-time table and the tracing overhead, and writes the kept
 * spans to PATH.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  Everything before
 * it is for people: fingerprint, host probe, metrics with units,
 * deterministic counts ("counts <workload>: {...}") and the digest
 * of simulated statistics ("digest <workload>: ...").
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hh"

using namespace hostbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    int trace = -1;
    std::string spansOut;
    std::string sourceId = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload pump|stack|traffic|check "
                 "--seed N --seconds S --trace 0|1 [--spans-out PATH] "
                 "[--source-id ID]\n",
                 why);
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            if (!parseU64(v, a.seed))
                usage("--seed needs a non-negative integer");
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("--seconds needs a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace needs 0 or 1");
            a.trace = v[0] - '0';
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else if (flag == "--source-id") {
            a.sourceId = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || a.seconds == 0 || a.trace < 0)
        usage("--workload, --seconds and --trace are required");
    if (makeWorkload(a.workload, a.seed) == nullptr)
        usage(("unknown workload " + a.workload).c_str());
    return a;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host-speed probe.  FROZEN: its time is only comparable with its own
 * earlier readings, so it must never change.  A dependent walk over a
 * 4 MiB random cycle (cache and memory latency, which is where this
 * host's slow regime shows) followed by an integer mixing loop.
 */
double
probeMs()
{
    static std::vector<std::uint32_t> next;
    constexpr std::uint32_t n = 1u << 20;
    if (next.empty()) {
        next.resize(n);
        std::vector<std::uint32_t> perm(n);
        for (std::uint32_t i = 0; i < n; ++i)
            perm[i] = i;
        std::uint64_t s = 0x5eed;
        for (std::uint32_t i = n - 1; i > 0; --i) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            std::swap(perm[i], perm[(s >> 33) % (i + 1)]);
        }
        for (std::uint32_t i = 0; i < n; ++i)
            next[perm[i]] = perm[(i + 1) % n];
    }
    const double t0 = wallSeconds();
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < 2 * n; ++i)
        at = next[at];
    std::uint64_t x = at;
    for (int i = 0; i < 4'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double ms = (wallSeconds() - t0) * 1e3;
    return ms + static_cast<double>(x & 1) * 1e-12; // keep x live
}

/**
 * Peak resident set of this process image, from VmHWM: getrusage's
 * ru_maxrss would also remember the image that exec'd this one (the
 * Python launcher).
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    double kb = 0;
    while (f != nullptr && std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    if (f != nullptr)
        std::fclose(f);
    if (kb == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kb = static_cast<double>(ru.ru_maxrss);
    }
    return kb / 1024.0;
}

void
printMetric(const std::string &name, double value, const std::string &unit,
            const std::string &note = "")
{
    std::printf("  %-40s %16.6g %-6s%s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonMetrics(const Metrics &m)
{
    std::string s = "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (i > 0)
            s += ", ";
        s += "\"" + m[i].first + "\": {\"value\": " +
             jsonNumber(m[i].second.first) + ", \"unit\": \"" +
             m[i].second.second + "\"}";
    }
    return s + "}";
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                jsonMetrics(m).c_str());
}

/** Untimed reference batch: oracles, counts and digest, printed. */
void
countPass(Workload &w, Recorder &rec, Metrics &counts)
{
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    w.count(counts, digest, rec);
    std::string json = "{";
    for (const auto &[name, vu] : counts) {
        json += (json.size() > 1 ? ", \"" : "\"") + name + "\": " +
            jsonNumber(vu.first);
    }
    std::printf("counts %s: %s}\n", w.name(), json.c_str());
    std::printf("digest %s: %016llx (%s)\n", w.name(),
                static_cast<unsigned long long>(digest), w.stats().c_str());
}

/**
 * Moves the process round-robin over the CPUs it was allowed at
 * start-up.  A CPU whose hardware neighbour is busy runs this code up
 * to 2x slower for seconds at a time; rotating keeps one contended CPU
 * from owning a whole run, so the fast items come from whichever CPU
 * is quiet.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        next_ = (next_ + 1) % cpus_.size();
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    std::size_t size() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Batches for @p seconds, with set-up samples spread through them. */
void
measure(Workload &w, const Args &a, double seconds, Recorder &rec,
        std::vector<double> *setups)
{
    static CpuRotation rotation;
    const double start = wallSeconds();
    double lastSetup = start, lastMove = start;
    std::size_t batches = 0;
    while (batches < 2 || wallSeconds() - start < seconds) {
        w.batch(rec);
        rec.endBatch();
        ++batches;
        if (wallSeconds() - lastMove >= 0.25) {
            rotation.next();
            lastMove = wallSeconds();
        }
        // Scratch set-ups, timed and torn down: one per 50 ms of run
        // (at most 10 after a batch), so set-up cost is sampled
        // across the run like every other timing.
        for (int i = 0; setups != nullptr && i < 10 &&
                        wallSeconds() - lastSetup >= 0.05;
             ++i) {
            auto scratch = makeWorkload(a.workload, a.seed);
            const std::uint64_t t0 = cycles();
            scratch->setup();
            setups->push_back(static_cast<double>(cycles() - t0));
            scratch.reset();
            lastSetup += 0.05;
        }
    }
    std::printf("measured %s: %zu batches, %zu items in %.2f s over %zu "
                "cpus\n",
                w.name(), batches, rec.items(), wallSeconds() - start,
                rotation.size());
}

int
untraced(const Args &a)
{
    auto w = makeWorkload(a.workload, a.seed);
    Recorder rec(w->kinds());
    std::vector<double> setups;
    std::uint64_t t0 = cycles();
    w->setup();
    setups.push_back(static_cast<double>(cycles() - t0));
    Metrics counts;
    countPass(*w, rec, counts);

    const double probeBefore = probeMs();
    measure(*w, a, a.seconds, rec, &setups);
    const double probeAfter = probeMs();

    const double failFrac =
        rec.attempted == 0 ? 1.0
                           : static_cast<double>(rec.failed) /
                                 static_cast<double>(rec.attempted);
    Metrics e2e = {
        {"packets_per_s", {rec.packetsPerSecond(), "1/s"}},
        {"op_us_p50", {rec.opUs(false), "us"}},
        {"op_us_p99", {rec.opUs(true), "us"}},
        {"setup_s", {fastMedian(setups) * nsPerCycle() * 1e-9, "s"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
    };
    Metrics extra;
    w->extra(rec, extra);

    std::printf("host probe: %.3f ms before, %.3f ms after; "
                "median/fast item time %.3f\n",
                probeBefore, probeAfter, rec.regimeRatio());
    std::printf("end-to-end %s (seed %llu, fastest 5%% of items per kind):\n",
                w->name(),
                static_cast<unsigned long long>(a.seed));
    const std::string samples =
        "  (n=" + std::to_string(rec.opSamples()) + " ops in fast items)";
    const std::string setupSamples =
        "  (n=" + std::to_string(setups.size()) + " set-ups)";
    for (const auto &[name, vu] : e2e)
        printMetric(name, vu.first, vu.second,
                    name.rfind("op_us", 0) == 0 ? samples
                    : name == "setup_s"         ? setupSamples
                                                : "");
    for (const auto &[name, vu] : extra)
        printMetric(name, vu.first, vu.second);
    printMetric("fail_frac", failFrac, "ratio",
                "  (" + std::to_string(rec.failed) + "/" +
                    std::to_string(rec.attempted) + ")");
    std::fflush(stdout);
    printResult(rec.failed == 0, rec.attempted, rec.failed, e2e);
    return 0;
}

int
traced(const Args &a)
{
    Tracer tracer;
    Metrics layer;
    std::uint64_t attempted = 0, failed = 0;
    double overhead = 0;
    std::vector<std::string> order = {a.workload};
    for (const std::string &n : workloadNames())
        if (n != a.workload)
            order.push_back(n);
    for (const std::string &name : order) {
        const bool selected = name == a.workload;
        auto w = makeWorkload(name, a.seed);
        Recorder plain(w->kinds()), spans(w->kinds());
        w->setup();
        Metrics counts;
        countPass(*w, plain, counts);
        layer.insert(layer.end(), counts.begin(), counts.end());
        if (selected)
            measure(*w, a, 0.2 * a.seconds, plain, nullptr);
        w->setTracer(&tracer);
        measure(*w, a, (selected ? 0.3 : 0.5 / 3) * a.seconds, spans, nullptr);
        w->traced(tracer, layer);
        w->setTracer(nullptr);
        if (selected) {
            // Same estimator on both passes; positive = tracing cost.
            const double p = plain.packetsPerSecond();
            const double t = spans.packetsPerSecond();
            overhead = t > 0 ? (p / t - 1.0) * 100.0 : 0;
        }
        attempted += plain.attempted + spans.attempted;
        failed += plain.failed + spans.failed;
    }
    layer.push_back({"trace.overhead_pct", {overhead, "%"}});

    std::printf("span self time (all workloads, traced passes):\n%s",
                tracer.selfTimeTable().c_str());
    std::printf("per-layer metrics (%s traced first; overhead is its "
                "untraced vs traced packets_per_s):\n",
                a.workload.c_str());
    for (const auto &[name, vu] : layer)
        printMetric(name, vu.first, vu.second);
    if (!a.spansOut.empty()) {
        if (tracer.write(a.spansOut))
            std::printf("spans: %llu recorded, first ones written to %s\n",
                        static_cast<unsigned long long>(tracer.spans()),
                        a.spansOut.c_str());
        else
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         a.spansOut.c_str());
    }
    std::fflush(stdout);
    printResult(failed == 0, attempted, failed, layer);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    startClock();
    std::printf("fingerprint: nproc=%ld compiler=%s build=%s source=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), HOSTBENCH_COMPILER,
                HOSTBENCH_BUILD_TYPE, a.sourceId.c_str());
    return a.trace == 0 ? untraced(a) : traced(a);
}
