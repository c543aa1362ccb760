#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"

namespace hostbench
{

namespace
{

// The fastest twentieth of the samples of one kind are its fast ones.
constexpr std::size_t kFastDivisor = 20;

std::uint64_t startCycles = 0;
std::chrono::steady_clock::time_point startTime;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (reordered in place). */
double
percentile(std::vector<std::uint32_t> &v, double q)
{
    if (v.empty())
        return 0;
    const double n = static_cast<double>(v.size());
    std::size_t k = static_cast<std::size_t>(q * n);
    if (k >= v.size())
        k = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

/** How many of @p n samples, fastest first, count as fast. */
std::size_t
fastCount(std::size_t n)
{
    if (n == 0)
        return 0;
    return std::max<std::size_t>(1, (n + kFastDivisor - 1) / kFastDivisor);
}

} // namespace

double
fastMedian(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    v.resize(fastCount(v.size()));
    return median(v);
}

void
startClock()
{
    startTime = std::chrono::steady_clock::now();
    startCycles = cycles();
}

double
nsPerCycle()
{
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - startTime)
                          .count();
    const double cyc = static_cast<double>(cycles() - startCycles);
    return cyc > 0 ? ns / cyc : 1.0;
}

// ------------------------------------------------------------------
// Tracer
// ------------------------------------------------------------------

int
Tracer::intern(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const int id = static_cast<int>(names_.size());
    ids_.emplace(name, id);
    names_.push_back(name);
    aggs_.emplace_back();
    return id;
}

void
Tracer::begin(int name)
{
    const std::uint64_t id = nextId_++;
    const std::uint64_t parent = open_.empty() ? 0 : open_.back().id;
    const std::uint64_t op = open_.empty() ? id : open_.back().op;
    open_.push_back(Open{name, id, parent, op, cycles(), 0});
}

void
Tracer::end()
{
    const std::uint64_t now = cycles();
    const Open o = open_.back();
    open_.pop_back();
    const std::uint64_t dur = now - o.start;
    Agg &a = aggs_[static_cast<std::size_t>(o.name)];
    ++a.count;
    a.totalCycles += dur;
    a.selfCycles += dur > o.childCycles ? dur - o.childCycles : 0;
    if (!open_.empty())
        open_.back().childCycles += dur;
    if (kept_.size() < kKeep)
        kept_.push_back(Kept{o.name, o.id, o.parent, o.op, o.start, now});
}

Tracer::Agg
Tracer::agg(const std::string &name) const
{
    auto it = ids_.find(name);
    if (it == ids_.end())
        return Agg{};
    return aggs_[static_cast<std::size_t>(it->second)];
}

double
Tracer::meanNs(const std::string &name) const
{
    const Agg a = agg(name);
    return a.count == 0 ? 0
                        : static_cast<double>(a.totalCycles) * nsPerCycle() /
                              static_cast<double>(a.count);
}

double
Tracer::totalNs(const std::string &name) const
{
    return static_cast<double>(agg(name).totalCycles) * nsPerCycle();
}

/** 100 * part / whole (0 when whole is 0). */
static double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

std::string
Tracer::selfTimeTable() const
{
    std::vector<std::size_t> order(names_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  return aggs_[a].selfCycles > aggs_[b].selfCycles;
              });
    std::uint64_t selfSum = 0;
    for (const Agg &a : aggs_)
        selfSum += a.selfCycles;
    const double k = nsPerCycle();
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof line, "  %-30s %10s %12s %12s %7s\n", "span",
                  "count", "mean_ns", "self_ns", "self%");
    os << line;
    for (std::size_t i : order) {
        const Agg &a = aggs_[i];
        if (a.count == 0)
            continue;
        const double n = static_cast<double>(a.count);
        std::snprintf(line, sizeof line,
                      "  %-30s %10llu %12.1f %12.1f %6.2f%%\n",
                      names_[i].c_str(),
                      static_cast<unsigned long long>(a.count),
                      static_cast<double>(a.totalCycles) * k / n,
                      static_cast<double>(a.selfCycles) * k / n,
                      share(a.selfCycles, selfSum));
        os << line;
    }
    return os.str();
}

const char *
Tracer::nameOf(int id) const
{
    return names_[static_cast<std::size_t>(id)].c_str();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double k = nsPerCycle() / 1000.0; // cycles -> µs
    const std::uint64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Kept &s = kept_[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                      "\"parent\":%llu,\"op\":%llu}}",
                      i == 0 ? "" : ",", nameOf(s.name),
                      static_cast<double>(s.start - t0) * k,
                      static_cast<double>(s.end - s.start) * k,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.op));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------------------
// Recorder
// ------------------------------------------------------------------

Recorder::Recorder(std::vector<std::string> kinds) : kinds_(std::move(kinds))
{
    items_.reserve(1 << 16);
}

void
Recorder::item(int kind, std::uint64_t cyc, std::uint64_t packets,
               std::vector<std::uint32_t> *ops)
{
    Item it{kind, cyc, packets, 0, 0, 0};
    if (ops != nullptr && !ops->empty()) {
        it.ops = static_cast<std::uint32_t>(ops->size());
        if (ops->size() <= kPoolOps)
            keep(kind, cyc, *ops);
        it.p50 = percentile(*ops, 0.50);
        it.p99 = percentile(*ops, 0.99);
        ops->clear();
    }
    items_.push_back(it);
}

void
Recorder::keep(int kind, std::uint64_t cyc,
               const std::vector<std::uint32_t> &ops)
{
    if (kept_.size() <= static_cast<std::size_t>(kind))
        kept_.resize(static_cast<std::size_t>(kind) + 1);
    auto &heap = kept_[static_cast<std::size_t>(kind)];
    const auto slower = [](const Kept &a, const Kept &b) {
        return a.cycles < b.cycles;
    };
    if (heap.size() < kKeepItems) {
        heap.push_back(Kept{cyc, ops});
        std::push_heap(heap.begin(), heap.end(), slower);
    } else if (cyc < heap.front().cycles) {
        // Replace the slowest kept item, reusing its buffer.
        std::pop_heap(heap.begin(), heap.end(), slower);
        heap.back().cycles = cyc;
        heap.back().samples.assign(ops.begin(), ops.end());
        std::push_heap(heap.begin(), heap.end(), slower);
    }
}

std::vector<const Recorder::Item *>
Recorder::fast(int kind) const
{
    std::vector<const Item *> all;
    for (const Item &it : items_)
        if (it.kind == kind)
            all.push_back(&it);
    std::sort(all.begin(), all.end(), [](const Item *a, const Item *b) {
        return a->cycles < b->cycles;
    });
    all.resize(fastCount(all.size()));
    return all;
}

double
Recorder::perBatch(int kind) const
{
    std::size_t n = 0;
    for (const Item &it : items_)
        n += it.kind == kind;
    if (batches_ == 0)
        return 1.0;
    return static_cast<double>(n) / static_cast<double>(batches_);
}

double
Recorder::kindSeconds(int kind) const
{
    std::vector<double> t;
    for (const Item *it : fast(kind))
        t.push_back(static_cast<double>(it->cycles));
    return median(t) * nsPerCycle() * 1e-9;
}

double
Recorder::perSecond(const std::vector<double> &perItem) const
{
    double n = 0, seconds = 0;
    for (int k = 0; k < static_cast<int>(kinds_.size()); ++k) {
        const double m = perBatch(k);
        n += m * perItem[static_cast<std::size_t>(k)];
        seconds += m * kindSeconds(k);
    }
    return seconds > 0 ? n / seconds : 0;
}

double
Recorder::packetsPerSecond() const
{
    std::vector<double> packets;
    for (int k = 0; k < static_cast<int>(kinds_.size()); ++k) {
        std::vector<double> p;
        for (const Item *it : fast(k))
            p.push_back(static_cast<double>(it->packets));
        packets.push_back(median(p));
    }
    return perSecond(packets);
}

double
Recorder::opUs(bool p99) const
{
    double sum = 0;
    int kindsWithOps = 0;
    for (int k = 0; k < static_cast<int>(kinds_.size()); ++k) {
        const std::vector<const Item *> f = fast(k);
        std::vector<double> perItem;
        for (const Item *it : f)
            if (it->ops > 0)
                perItem.push_back(p99 ? it->p99 : it->p50);
        if (perItem.empty())
            continue;
        ++kindsWithOps;
        if (static_cast<std::size_t>(k) >= kept_.size() ||
            kept_[static_cast<std::size_t>(k)].empty()) {
            sum += median(perItem);
            continue;
        }
        // Items of a few long operations are pooled, so p99 rests on
        // enough samples; items of many short ones carry their own.
        std::vector<Kept> kept = kept_[static_cast<std::size_t>(k)];
        std::sort(kept.begin(), kept.end(),
                  [](const Kept &a, const Kept &b) {
                      return a.cycles < b.cycles;
                  });
        kept.resize(std::min(kept.size(), perItem.size()));
        std::vector<std::uint32_t> pooled;
        for (const Kept &kp : kept)
            pooled.insert(pooled.end(), kp.samples.begin(), kp.samples.end());
        sum += percentile(pooled, p99 ? 0.99 : 0.50);
    }
    return kindsWithOps == 0 ? 0 : sum / kindsWithOps * nsPerCycle() / 1000.0;
}

std::uint64_t
Recorder::opSamples() const
{
    std::uint64_t n = 0;
    for (int k = 0; k < static_cast<int>(kinds_.size()); ++k)
        for (const Item *it : fast(k))
            n += it->ops;
    return n;
}

double
Recorder::regimeRatio() const
{
    std::vector<double> ratios;
    for (int k = 0; k < static_cast<int>(kinds_.size()); ++k) {
        std::vector<double> all;
        for (const Item &it : items_)
            if (it.kind == k)
                all.push_back(static_cast<double>(it.cycles));
        const double f = kindSeconds(k);
        if (!all.empty() && f > 0)
            ratios.push_back(median(all) * nsPerCycle() * 1e-9 / f);
    }
    return median(ratios);
}

} // namespace hostbench
