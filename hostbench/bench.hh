/**
 * @file
 * Shared vocabulary of the host-cost benchmark driver.
 *
 * Every number the driver reports is *host* cost: what the simulator
 * costs to run on this machine.  Simulated statistics (instruction
 * bills, ticks, NetStats) are never metrics here; they are oracles
 * and a digest that must come out identical run after run.
 *
 * A workload is a fixed sequence of *items*, one per item kind, that
 * together make one *batch*.  The measured phase repeats batches
 * until its time is up and records every item's host time.  Timing
 * statistics are taken from the fastest items of each kind (see
 * Recorder), because the hosts this runs on alternate between speed
 * regimes on a sub-second to seconds scale.
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hostprof/hostprof.hh"

namespace hostbench
{

/** Host cycle counter (TSC on x86); converted to ns by calibration. */
inline std::uint64_t
cycles()
{
    return msgsim::hostprof::tscNow();
}

/** Median of the fastest 5% of @p v (0 when empty). */
double fastMedian(std::vector<double> v);

/** ns per cycle, measured against steady_clock since start-up. */
double nsPerCycle();

/** Record start-up time for nsPerCycle(); call once from main. */
void startClock();

// ---------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own layer calls.
// ---------------------------------------------------------------

/**
 * In-memory span recorder.  Every span carries its name, start, end,
 * its own id, its parent's id and the id of the operation (root span)
 * it belongs to.  Per-name totals and self times (duration minus the
 * time covered by child spans) are aggregated as spans close; the
 * first spans are also kept verbatim and written out at exit.
 */
class Tracer
{
  public:
    struct Agg
    {
        std::uint64_t count = 0;
        std::uint64_t totalCycles = 0;
        std::uint64_t selfCycles = 0;
    };


    /** Id of @p name (stable for the tracer's lifetime). */
    int intern(const std::string &name);

    void begin(int name);
    void end();

    /** Aggregate of one span name (zeros when never recorded). */
    Agg agg(const std::string &name) const;

    /** Mean duration of @p name in ns (0 when never recorded). */
    double meanNs(const std::string &name) const;

    /** Total duration of @p name in ns. */
    double totalNs(const std::string &name) const;

    /** Per-name self-time table, largest self time first. */
    std::string selfTimeTable() const;

    /** Kept spans as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

    std::uint64_t spans() const { return nextId_ - 1; }

  private:
    const char *nameOf(int id) const;

    struct Open
    {
        int name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t op;
        std::uint64_t start;
        std::uint64_t childCycles;
    };
    struct Kept
    {
        int name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t op;
        std::uint64_t start;
        std::uint64_t end;
    };

    /// Spans kept verbatim for write(); later ones are only aggregated.
    static constexpr std::size_t kKeep = 20000;

    std::map<std::string, int> ids_;
    std::vector<std::string> names_;
    std::vector<Agg> aggs_;
    std::vector<Open> open_;
    std::vector<Kept> kept_;
    std::uint64_t nextId_ = 1;
};

/** RAII span; a no-op when @p t is null (the untraced runs). */
class Span
{
  public:
    Span(Tracer *t, int name) : t_(t)
    {
        if (t_ != nullptr)
            t_->begin(name);
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

// ---------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------

/** Ordered name -> (value, unit) list. */
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/**
 * Collects item timings of the measured phase.
 *
 * Per item kind, the fastest 5% of its items are the *fast* items;
 * the kind's time is their median (about the 2.5th percentile).  A
 * run then reports what the code costs in the host's fast regime,
 * provided some CPU spends a twentieth of the run there.
 */
class Recorder
{
  public:
    explicit Recorder(std::vector<std::string> kinds);

    /**
     * One item: @p cyc host cycles, @p packets fabric packets
     * delivered, @p ops per-operation cycle samples (may be empty;
     * their p50/p99 are taken here, so the buffer is reused).
     */
    void item(int kind, std::uint64_t cyc, std::uint64_t packets,
              std::vector<std::uint32_t> *ops = nullptr);

    /** Operation outcomes (the oracles). */
    void attempt(std::uint64_t n, std::uint64_t failed)
    {
        attempted += n;
        this->failed += failed;
    }

    std::size_t items() const { return items_.size(); }

    /** Marks the end of one batch (item kinds may repeat in one). */
    void endBatch() { ++batches_; }

    /** Fast time of one kind, in seconds (0 when never recorded). */
    double kindSeconds(int kind) const;

    /** Fabric packets per second over one fast batch. */
    double packetsPerSecond() const;

    /** Σ per-item counts / Σ fast seconds over one batch (by kind). */
    double perSecond(const std::vector<double> &perItem) const;

    /**
     * Mean over op kinds of the fast items' p50 / p99 (µs): pooled
     * over the fast items (at most kKeepItems) when they are small
     * enough to keep their samples, else the median of the per-item
     * percentiles.
     */
    double opUs(bool p99) const;

    /** Op samples inside the fast items. */
    std::uint64_t opSamples() const;

    /** Median item time over fast item time, per kind (diagnostic). */
    double regimeRatio() const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    struct Item
    {
        int kind;
        std::uint64_t cycles;
        std::uint64_t packets;
        std::uint32_t ops;
        double p50;
        double p99;
    };

    /** Samples of one of the fastest items of a kind. */
    struct Kept
    {
        std::uint64_t cycles;
        std::vector<std::uint32_t> samples;
    };

    // Items of at most kPoolOps operations keep their samples while
    // they are among the kKeepItems fastest of their kind: bounded
    // memory, so the process's peak RSS does not grow with the run.
    static constexpr std::size_t kPoolOps = 256;
    static constexpr std::size_t kKeepItems = 128;

    std::vector<const Item *> fast(int kind) const;

    void keep(int kind, std::uint64_t cyc,
              const std::vector<std::uint32_t> &ops);

    /** Items of @p kind per batch. */
    double perBatch(int kind) const;

    std::vector<std::string> kinds_;
    std::vector<Item> items_;
    std::vector<std::vector<Kept>> kept_; ///< per kind, a max-heap on cycles
    std::size_t batches_ = 0;
};

/**
 * One workload.  The driver calls setup(), then count() once, then
 * batch() until the measured time is up; set-up is timed on scratch
 * instances built and torn down between batches.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Item kinds, in batch order. */
    virtual std::vector<std::string> kinds() const = 0;

    /** Build every network, stack, engine and protocol object. */
    virtual void setup() = 0;

    /**
     * One untimed reference batch on the fresh set-up: checks the
     * oracles, records the deterministic per-layer counts into
     * @p counts, and folds the simulated statistics into @p digest.
     */
    virtual void count(Metrics &counts, std::uint64_t &digest,
                       Recorder &rec) = 0;

    /** One measured batch. */
    virtual void batch(Recorder &rec) = 0;

    /** Per-layer metrics from a traced pass, including set-up ones. */
    virtual void traced(const Tracer &t, Metrics &out) = 0;

    /** Workload-specific end-to-end figures (human output only). */
    virtual void extra(const Recorder &, Metrics &) const {}

    /** A one-line digest of simulated statistics (human output). */
    virtual std::string stats() const = 0;

    /** Spans go to @p t from now on (null = untraced). */
    virtual void setTracer(Tracer *t) = 0;
};

/** pump | stack | traffic | check; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** The workload names, in canonical order. */
const std::vector<std::string> &workloadNames();

/** FNV-1a step. */
inline void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
