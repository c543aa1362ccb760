/**
 * @file
 * The four workloads.  Each drives the simulator only through its
 * public entry points, generates every input from the seed, and
 * checks every operation against an oracle.
 *
 *  - pump:    single packets through each bare fabric (sim + net +
 *             substrate; no ni/cmam/protocols code), queue ≤ 2 deep.
 *  - stack:   the paper's per-message software path on persistent
 *             2-node stacks of all four substrates.
 *  - traffic: 64-node traffic patterns and allreduce collectives; the
 *             event queue runs hundreds deep.
 *  - check:   the schedule explorer, which builds and tears down a
 *             fresh harness for every schedule.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hh"
#include "check/explorer.hh"
#include "check/harness.hh"
#include "cm5net/cm5_network.hh"
#include "coll/collectives.hh"
#include "core/accounting.hh"
#include "crnet/cr_network.hh"
#include "hlam/hl_stack.hh"
#include "model/analytic.hh"
#include "model/traffic_model.hh"
#include "nicam/nicam_network.hh"
#include "nicam/nicam_stack.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "rdmanet/rdma_network.hh"
#include "rdmanet/rdma_stack.hh"
#include "sim/rng.hh"
#include "traffic/engine.hh"
#include "wire/wire_run.hh"

namespace hostbench
{

using namespace msgsim;

namespace
{

std::uint64_t
allocs()
{
    return hostprof::globalAllocCount();
}

std::uint64_t
allocBytes()
{
    return hostprof::globalAllocBytes();
}

/** A reproducible 64-bit input derived from the seed and a label. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t label)
{
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + label;
    return splitMix64(s);
}

double
ratio(double a, double b)
{
    return b == 0 ? 0 : a / b;
}

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
toUs(std::uint64_t cyc)
{
    return static_cast<double>(cyc) * nsPerCycle() / 1000.0;
}

/**
 * Times one construction into @p samples (µs; the first 1024 only, so
 * memory does not grow with the run) and returns the object.
 */
template <class T, class... Args>
std::unique_ptr<T>
timedBuild(std::vector<double> &samples, Args &&...args)
{
    const std::uint64_t t0 = cycles();
    auto obj = std::make_unique<T>(std::forward<Args>(args)...);
    if (samples.size() < 1024)
        samples.push_back(toUs(cycles() - t0));
    return obj;
}

/** A measured instruction bill equals @p times × the model, per cell. */
bool
billMatches(const InstrCounter &got, const FeatureBreakdown &want,
            Direction dir, std::uint64_t times = 1)
{
    const double k = static_cast<double>(times);
    for (int f = 0; f < numPaperFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        const CatCost &w = want.at(feat, dir);
        const auto cell = [&](Category c) {
            return static_cast<double>(got.category(feat, c));
        };
        if (cell(Category::Reg) != k * w.reg ||
            cell(Category::Mem) != k * w.mem ||
            cell(Category::Dev) != k * w.dev)
            return false;
    }
    return true;
}

void
mixStats(std::uint64_t &h, const NetStats &s)
{
    mix(h, s.injected);
    mix(h, s.delivered);
    mix(h, s.dropped);
    mix(h, s.corrupted);
    mix(h, s.duplicated);
    mix(h, s.deliveryRetries);
    mix(h, s.hwRetries);
}

void
mixCounter(std::uint64_t &h, const InstrCounter &c)
{
    mix(h, c.paperTotal());
    mix(h, c.total());
}

// ==================================================================
// pump
// ==================================================================

class Pump : public Workload
{
  public:
    explicit Pump(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "pump"; }

    std::vector<std::string>
    kinds() const override
    {
        std::vector<std::string> k;
        for (const char *layer : kLayers)
            for (std::uint32_t w : kWords)
                k.push_back(std::string(layer) + ".w" + std::to_string(w));
        return k;
    }

    void
    setup() override
    {
        kinds_.clear();
        int idx = 0;
        for (const char *layer : kLayers) {
            for (std::uint32_t words : kWords) {
                auto k = std::make_unique<Kind>();
                k->layer = layer;
                k->tag = "w" + std::to_string(words);
                k->words = words;
                k->sim = std::make_unique<Simulator>();
                buildNetwork(*k, idx);
                std::uint64_t s = derive(seed_,
                                         static_cast<std::uint64_t>(idx));
                k->payload.resize(words);
                for (Word &w : k->payload)
                    w = static_cast<Word>(splitMix64(s));
                kinds_.push_back(std::move(k));
                ++idx;
            }
        }
        ops_.reserve(kItemPackets);
    }

    void
    count(Metrics &counts, std::uint64_t &digest, Recorder &rec) override
    {
        std::uint64_t events = 0, packets = 0;
        std::size_t depth = 0;
        for (auto &kp : kinds_) {
            Kind &k = *kp;
            std::uint64_t failed = 0;
            pump(k, kWarmPackets, nullptr, failed);
            const std::uint64_t a0 = allocs(), b0 = allocBytes();
            const std::uint64_t e0 = k.sim->eventsDispatched();
            pump(k, kCountPackets, nullptr, failed);
            const double n = kCountPackets;
            counts.push_back({k.layer + ".allocs_per_packet." + k.tag,
                              {static_cast<double>(allocs() - a0) / n,
                               "count"}});
            counts.push_back({k.layer + ".alloc_bytes_per_packet." + k.tag,
                              {static_cast<double>(allocBytes() - b0) / n,
                               "B"}});
            events += k.sim->eventsDispatched() - e0;
            packets += kCountPackets;
            depth = std::max(depth, k.sim->maxQueueDepth());
            failed += drainCheck(k);
            rec.attempt(kWarmPackets + kCountPackets + 1, failed);
            mixStats(digest, k.net->stats());
            mix(digest, k.sim->now());
            mix(digest, k.sim->eventsDispatched());
        }
        counts.push_back({"sim.events_per_packet.pump",
                          {ratio(static_cast<double>(events),
                                 static_cast<double>(packets)),
                           "count"}});
        counts.push_back({"sim.max_queue_depth.pump",
                          {static_cast<double>(depth), "count"}});
    }

    void
    batch(Recorder &rec) override
    {
        for (std::size_t i = 0; i < kinds_.size(); ++i) {
            Kind &k = *kinds_[i];
            std::uint64_t failed = 0;
            const std::uint64_t e0 = k.sim->eventsDispatched();
            const std::uint64_t cyc = pump(k, kItemPackets, &ops_, failed);
            if (tracer_ != nullptr)
                k.tracedEvents += k.sim->eventsDispatched() - e0;
            rec.attempt(kItemPackets, failed);
            rec.item(static_cast<int>(i), cyc, kItemPackets, &ops_);
        }
    }

    void
    traced(const Tracer &t, Metrics &out) override
    {
        double runNs = 0, events = 0;
        for (auto &kp : kinds_) {
            Kind &k = *kp;
            out.push_back({k.layer + ".inject_ns." + k.tag,
                           {t.meanNs(k.layer + ".inject." + k.tag), "ns"}});
            out.push_back({k.layer + ".run_ns." + k.tag,
                           {t.meanNs(k.layer + ".run." + k.tag), "ns"}});
            runNs += t.totalNs(k.layer + ".run." + k.tag);
            events += static_cast<double>(k.tracedEvents);
        }
        out.push_back({"sim.run_ns_per_event.pump",
                       {ratio(runNs, events), "ns"}});

        // Inside one sim.run() only hostprof can tell the event kernel
        // from the substrate's handlers: attach it (read-only) for a
        // short untraced pump per substrate, and split the traced
        // inject + run time by its subsystem self shares.
        Tracer *const saved = tracer_;
        tracer_ = nullptr;
        for (auto &kp : kinds_) {
            Kind &k = *kp;
            if (k.words != kWords[0])
                continue;
            hostprof::HostProfiler hp;
            std::uint64_t failed = 0;
            hp.attach();
            pump(k, kProfiledPackets, nullptr, failed);
            hp.detach();
            const double ns = t.meanNs(k.layer + ".inject." + k.tag) +
                              t.meanNs(k.layer + ".run." + k.tag);
            double share[3] = {0, 0, 0};
            for (const auto &row : hp.subsystems()) {
                if (row.name == "sim")
                    share[0] = row.share;
                else if (row.name == "net")
                    share[1] = row.share;
                else if (row.name == k.hostprofName)
                    share[2] = row.share;
            }
            std::printf("hostprof %s.%s self shares: "
                        "sim %.3f net %.3f %s %.3f\n",
                        k.layer.c_str(), k.tag.c_str(), share[0], share[1],
                        k.hostprofName.c_str(), share[2]);
            out.push_back({k.layer + ".sim_ns." + k.tag,
                           {share[0] * ns, "ns"}});
            out.push_back({k.layer + ".net_ns." + k.tag,
                           {share[1] * ns, "ns"}});
            out.push_back({k.layer + ".own_ns." + k.tag,
                           {share[2] * ns, "ns"}});
        }
        tracer_ = saved;
    }

    std::string
    stats() const override
    {
        std::string s;
        for (const auto &kp : kinds_) {
            const NetStats &st = kp->net->stats();
            s += " " + kp->layer + "." + kp->tag + "=" +
                 std::to_string(st.delivered) + "/" +
                 std::to_string(st.injected) + "@" +
                 std::to_string(kp->sim->now());
        }
        return "delivered/injected@tick:" + s;
    }

    void
    setTracer(Tracer *t) override
    {
        tracer_ = t;
        if (t == nullptr)
            return;
        for (auto &kp : kinds_) {
            kp->spanOp = t->intern("pump.op." + kp->layer + "." + kp->tag);
            kp->spanInject = t->intern(kp->layer + ".inject." + kp->tag);
            kp->spanRun = t->intern(kp->layer + ".run." + kp->tag);
        }
    }

  private:
    static constexpr const char *kLayers[] = {"cm5net", "crnet", "rdmanet",
                                              "nicam"};
    static constexpr const char *kProfNames[] = {"cm5", "cr", "rdma", "nicam"};
    static constexpr std::uint32_t kWords[] = {4, 128};
    static constexpr std::uint64_t kItemPackets = 2000;
    static constexpr std::uint64_t kWarmPackets = 1000;
    // A multiple of 7: cr and rdma allocate on a 7-packet period.
    static constexpr std::uint64_t kCountPackets = 7000;
    static constexpr std::uint64_t kProfiledPackets = 20000;
    static constexpr std::uint32_t kNodes = 16;

    struct Kind
    {
        std::string layer;
        std::string tag;
        std::string hostprofName;
        std::uint32_t words = 0;
        std::unique_ptr<Simulator> sim;
        std::unique_ptr<Network> net;
        std::vector<Word> payload;
        std::uint64_t got = 0;
        std::uint64_t bad = 0;
        std::uint64_t tracedEvents = 0;
        int spanOp = 0, spanInject = 0, spanRun = 0;

        bool
        accept(const Packet &p)
        {
            if (p.data.size() == words && p.data.front() == payload.front() &&
                p.data.back() == payload.back())
                ++got;
            else
                ++bad;
            return true;
        }
    };

    void
    buildNetwork(Kind &k, int idx)
    {
        const int sub = idx / 2;
        k.hostprofName = kProfNames[sub];
        Simulator &sim = *k.sim;
        Kind *kp = &k;
        if (sub == 0) {
            Cm5Network::Config cfg;
            cfg.nodes = kNodes;
            cfg.seed = derive(seed_, 100 + static_cast<std::uint64_t>(idx));
            k.net = std::make_unique<Cm5Network>(sim, cfg);
        } else if (sub == 1) {
            CrNetwork::Config cfg;
            cfg.nodes = kNodes;
            k.net = std::make_unique<CrNetwork>(sim, cfg);
        } else if (sub == 2) {
            RdmaNetwork::Config cfg;
            cfg.nodes = kNodes;
            k.net = std::make_unique<RdmaNetwork>(sim, cfg);
        } else {
            NicamNetwork::Config cfg;
            cfg.nodes = kNodes;
            auto nicam = std::make_unique<NicamNetwork>(sim, cfg);
            // Every packet runs an on-NIC offload handler, so the
            // host sink never sees it.
            nicam->offloadHandler(1, HwTag::UserAm, 0,
                                  [kp](const Packet &p) { kp->accept(p); });
            k.net = std::move(nicam);
        }
        k.net->attach(1, [kp](Packet &&p) { return kp->accept(p); });
    }

    /** @p n single-packet operations; returns host cycles. */
    std::uint64_t
    pump(Kind &k, std::uint64_t n, std::vector<std::uint32_t> *ops,
         std::uint64_t &failed)
    {
        Network &net = *k.net;
        Simulator &sim = *k.sim;
        const std::uint64_t start = cycles();
        std::uint64_t prev = start;
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t before = k.got;
            bool accepted = false;
            if (tracer_ != nullptr) {
                Span op(tracer_, k.spanOp);
                {
                    Span s(tracer_, k.spanInject);
                    accepted = net.inject(Packet(0, 1, HwTag::UserAm, 0,
                                                 k.payload));
                }
                Span s(tracer_, k.spanRun);
                sim.run();
            } else {
                accepted = net.inject(Packet(0, 1, HwTag::UserAm, 0,
                                             k.payload));
                sim.run();
            }
            if (!accepted || k.got != before + 1)
                ++failed;
            if (ops != nullptr) {
                const std::uint64_t now = cycles();
                ops->push_back(static_cast<std::uint32_t>(now - prev));
                prev = now;
            }
        }
        return cycles() - start;
    }

    /** Fabric-level oracle: everything injected arrived, nothing lost. */
    static std::uint64_t
    drainCheck(const Kind &k)
    {
        const NetStats &s = k.net->stats();
        return s.delivered == s.injected && s.dropped == 0 && k.bad == 0 &&
                       k.got == s.injected
                   ? 0
                   : 1;
    }

    std::uint64_t seed_;
    Tracer *tracer_ = nullptr;
    std::vector<std::unique_ptr<Kind>> kinds_;
    std::vector<std::uint32_t> ops_;
};

// ==================================================================
// stack
// ==================================================================

class StackWl : public Workload
{
  public:
    explicit StackWl(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "stack"; }

    std::vector<std::string>
    kinds() const override
    {
        return {"am4.cm5",     "am4.cr",       "am4.rdma",  "am4.nicam",
                "xfer.cm5",    "xfer.cr",      "xfer.rdma", "xfer.nicam",
                "stream.cm5",  "stream.cr",    "stream.rdma",
                "stream.nicam", "wire.cm5"};
    }

    void
    setup() override
    {
        for (int s = 0; s < 2; ++s) {
            Am4 &a = am4_[s];
            StackConfig cfg;
            cfg.nodes = 2;
            cfg.substrate = s == 0 ? Substrate::Cm5 : Substrate::Cr;
            cfg.seed = derive(seed_, 200 + static_cast<std::uint64_t>(s));
            a.stack = timedBuild<Stack>(builds_[s == 0 ? "cm5" : "cr"], cfg);
            a.payload.assign(4, 0);
            Am4 *ap = &a;
            a.handler = a.stack->cmam(1).registerHandler(
                [ap](NodeId, const std::vector<Word> &args) {
                    ap->ok = args.size() >= 4 && args[0] == ap->payload[0] &&
                             args[3] == ap->payload[3];
                    ++ap->handled;
                });
        }
        buildXferCm5();
        buildStreamCm5();
        buildHl(hlXfer_);
        buildHl(hlStream_);
        ops_.reserve(kItemRounds);
    }

    void
    count(Metrics &counts, std::uint64_t &digest, Recorder &rec) override
    {
        counting_ = true;
        digest_ = &digest;
        countDelivered_ = countEvents_ = 0;
        countDepth_ = 0;
        for (int s = 0; s < 2; ++s) {
            Am4 &a = am4_[s];
            std::uint64_t failed = 0;
            const std::uint64_t a0 = allocs();
            am4Rounds(a, kCountRounds, nullptr, failed);
            counts.push_back({std::string("cmam.allocs_per_round.") + kSub[s],
                              {static_cast<double>(allocs() - a0) /
                               kCountRounds, "count"}});
            rec.attempt(kCountRounds, failed);
            const Simulator &sim = a.stack->sim();
            mix(digest, sim.now());
            mixStats(digest, a.stack->network().stats());
            mixCounter(digest, a.stack->node(0).acct().counter());
            mixCounter(digest, a.stack->node(1).acct().counter());
        }
        for (int s = 0; s < 4; ++s) {
            protoAllocs_ = protoPackets_ = 0;
            std::uint64_t pk = 0, failed = 0;
            runKind(kindXfer(s), 1, pk, failed);
            runKind(kindStream(s), 1, pk, failed);
            rec.attempt(2, failed);
            counts.push_back({std::string("protocols.allocs_per_packet.") +
                              kSub[s],
                              {ratio(static_cast<double>(protoAllocs_),
                                     static_cast<double>(protoPackets_)),
                               "count"}});
        }
        for (int s = 2; s < 4; ++s) {
            std::uint64_t pk = 0, failed = 0;
            runKind(s, 1, pk, failed);
            rec.attempt(1, failed);
        }
        {
            std::uint64_t pk = 0, failed = 0;
            runKind(kWire, 1, pk, failed);
            rec.attempt(1, failed);
        }
        counts.push_back({"sim.events_per_packet.stack",
                          {ratio(static_cast<double>(countEvents_),
                                 static_cast<double>(countDelivered_)),
                           "count"}});
        counts.push_back({"sim.max_queue_depth.stack",
                          {static_cast<double>(countDepth_), "count"}});
        counting_ = false;
        digest_ = nullptr;
    }

    void
    batch(Recorder &rec) override
    {
        for (int s = 0; s < 2; ++s) {
            std::uint64_t failed = 0;
            const Network &net = am4_[s].stack->network();
            const std::uint64_t d0 = net.stats().delivered;
            const std::uint64_t cyc = am4Rounds(am4_[s], kItemRounds, &ops_,
                                                failed);
            rec.attempt(kItemRounds, failed);
            rec.item(s, cyc, net.stats().delivered - d0, &ops_);
        }
        for (int k = 2; k < kNumKinds; ++k) {
            std::uint64_t packets = 0, failed = 0;
            const int runs = kRunsPerItem[k];
            const std::uint64_t cyc = runKind(k, runs, packets, failed);
            rec.attempt(static_cast<std::uint64_t>(runs), failed);
            rec.item(k, cyc, packets);
        }
    }

    void
    traced(const Tracer &t, Metrics &out) override
    {
        for (int s = 0; s < 2; ++s) {
            const std::string sub = kSub[s];
            out.push_back({"cmam.am4_ns." + sub,
                           {t.meanNs("cmam.am4." + sub), "ns"}});
            out.push_back({"machine.settle_ns." + sub,
                           {t.meanNs("machine.settle." + sub), "ns"}});
            out.push_back({"cmam.poll_ns." + sub,
                           {t.meanNs("cmam.poll." + sub), "ns"}});
        }
        for (int s = 0; s < 4; ++s) {
            const std::string sub = kSub[s];
            out.push_back({"protocols.xfer_us." + sub,
                           {t.meanNs("protocols.xfer." + sub) / 1000.0,
                            "us"}});
            out.push_back({"protocols.stream_us." + sub,
                           {t.meanNs("protocols.stream." + sub) / 1000.0,
                            "us"}});
        }
        const wire::WireWorkload w = wireWorkload(0);
        const double frameBytes =
            static_cast<double>(wire::frameWireBytes(w.payloadWords)) *
            w.streams * w.framesPerStream;
        out.push_back({"wire.ns_per_frame_byte",
                       {ratio(t.meanNs("wire.run.cm5"), frameBytes), "ns/B"}});
        for (const char *kind : {"cm5", "cr", "hl", "rdma", "nicam"})
            out.push_back({std::string("setup.stack_us.") + kind,
                           {medianOf(builds_[kind]), "us"}});
    }

    std::string
    stats() const override
    {
        std::string s = "am4 handled";
        for (const Am4 &a : am4_)
            s += " " + std::to_string(a.handled) + "@" +
                 std::to_string(a.stack->sim().now());
        s += "; runs " + std::to_string(runs_) + "; stack rebuilds " +
             std::to_string(rebuilds_);
        return s;
    }

    void
    setTracer(Tracer *t) override
    {
        tracer_ = t;
        if (t == nullptr)
            return;
        for (int s = 0; s < 2; ++s) {
            const std::string sub = kSub[s];
            am4_[s].spanRound = t->intern("stack.am4_round." + sub);
            am4_[s].spanAm4 = t->intern("cmam.am4." + sub);
            am4_[s].spanSettle = t->intern("machine.settle." + sub);
            am4_[s].spanPoll = t->intern("cmam.poll." + sub);
        }
        const std::vector<std::string> names = kinds();
        for (int k = 2; k < kNumKinds; ++k) {
            const std::string &n = names[static_cast<std::size_t>(k)];
            const std::string proto = n.substr(0, n.find('.'));
            const std::string sub = n.substr(n.find('.') + 1);
            const std::string layer =
                proto == "wire" ? "wire.run" : "protocols." + proto;
            spanKind_[k] = t->intern(layer + "." + sub);
        }
        spanBuild_ = t->intern("setup.stack");
    }

  private:
    static constexpr const char *kSub[] = {"cm5", "cr", "rdma", "nicam"};
    static constexpr int kNumKinds = 13;
    static constexpr int kWire = 12;
    static constexpr std::uint64_t kCountRounds = 1000;
    // Short am4 items (~0.1 ms) keep their samples, so the round
    // percentiles pool the fast items and fit between contended spells.
    static constexpr std::uint64_t kItemRounds = 250;
    static constexpr std::uint32_t kWords = 1024;
    static constexpr int kGroupAck = 4;
    // Runs per item: about a millisecond of host time each.
    static constexpr int kRunsPerItem[kNumKinds] = {0, 0, 100, 100, 4, 4, 4, 4,
                                                    2, 2, 2,   2,   2};
    // The rdma completion queue must hold a whole 1024-word stream
    // (256 packets): with the default 64 entries the polled stream
    // driver never completes.
    static constexpr std::size_t kRdmaCq = 256;

    static int kindXfer(int s) { return 4 + s; }
    static int kindStream(int s) { return 8 + s; }

    struct Am4
    {
        std::unique_ptr<Stack> stack;
        std::vector<Word> payload;
        int handler = 0;
        bool ok = false;
        std::uint64_t handled = 0;
        std::uint64_t round = 0;
        int spanRound = 0, spanAm4 = 0, spanSettle = 0, spanPoll = 0;
    };

    void
    buildXferCm5()
    {
        xferFx_.reset();
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.seed = derive(seed_, 210);
        xferStack_ = timedBuild<Stack>(builds_["cm5"], cfg);
        xferFx_ = std::make_unique<FiniteXfer>(*xferStack_);
    }

    void
    buildStreamCm5()
    {
        streamProto_.reset();
        StackConfig cfg;
        cfg.nodes = 2;
        cfg.seed = derive(seed_, 211);
        streamStack_ = timedBuild<Stack>(builds_["cm5"], cfg);
        streamProto_ = std::make_unique<StreamProtocol>(*streamStack_);
    }

    void
    buildHl(std::unique_ptr<HlStack> &h)
    {
        HlStackConfig cfg;
        cfg.nodes = 2;
        h = timedBuild<HlStack>(builds_["hl"], cfg);
    }

    /**
     * Rebuild a persistent stack long before its bump allocator runs
     * out (every ~64 transfers), so every run reaches its peak
     * footprint within its first second.
     */
    template <class S>
    static bool
    memoryHigh(S &stack)
    {
        const std::size_t limit = 1u << 16;
        return stack.node(0).mem().allocated() > limit ||
               stack.node(1).mem().allocated() > limit;
    }

    std::uint64_t
    nextFill()
    {
        return derive(seed_, 1000 + fills_++);
    }

    /** The canonical 4-stream wire mux run. */
    static wire::WireWorkload
    wireWorkload(std::uint64_t fillSeed)
    {
        wire::WireWorkload w;
        w.streams = 4;
        w.fillSeed = fillSeed;
        return w;
    }

    /** am4 rounds on a persistent CMAM stack: send, settle, poll. */
    std::uint64_t
    am4Rounds(Am4 &a, std::uint64_t n, std::vector<std::uint32_t> *ops,
              std::uint64_t &failed)
    {
        Stack &stack = *a.stack;
        Cmam &src = stack.cmam(0);
        Cmam &dst = stack.cmam(1);
        Accounting &srcAcct = stack.node(0).acct();
        Accounting &dstAcct = stack.node(1).acct();
        const InstrCounter src0 = srcAcct.counter();
        const InstrCounter dst0 = dstAcct.counter();
        const std::uint64_t e0 = stack.sim().eventsDispatched();
        const std::uint64_t d0 = stack.network().stats().delivered;
        const std::uint64_t start = cycles();
        std::uint64_t prev = start;
        for (std::uint64_t i = 0; i < n; ++i) {
            ++a.round;
            a.payload[0] = static_cast<Word>(a.round);
            a.payload[3] = static_cast<Word>(derive(seed_, a.round));
            a.ok = false;
            {
                Span r(tracer_, a.spanRound);
                {
                    FeatureScope fs(srcAcct, Feature::BaseCost);
                    Span sp(tracer_, a.spanAm4);
                    src.am4(1, a.handler, a.payload);
                }
                {
                    Span sp(tracer_, a.spanSettle);
                    stack.settle();
                }
                FeatureScope fs(dstAcct, Feature::BaseCost);
                Span sp(tracer_, a.spanPoll);
                dst.poll();
            }
            if (!a.ok)
                ++failed;
            if (ops != nullptr) {
                const std::uint64_t now = cycles();
                ops->push_back(static_cast<std::uint32_t>(now - prev));
                prev = now;
            }
        }
        const std::uint64_t cyc = cycles() - start;
        // The classic Table-1 bill covers am4 on both CMAM stacks:
        // every round costs exactly one single-packet send + receive.
        const FeatureBreakdown want = singlePacketModel(4);
        const InstrCounter srcBill = srcAcct.counter().diff(src0);
        const InstrCounter dstBill = dstAcct.counter().diff(dst0);
        if (!billMatches(srcBill, want, Direction::Source, n) ||
            !billMatches(dstBill, want, Direction::Destination, n))
            failed = n;
        if (counting_) {
            countEvents_ += stack.sim().eventsDispatched() - e0;
            countDelivered_ += stack.network().stats().delivered - d0;
            countDepth_ = std::max(countDepth_, stack.sim().maxQueueDepth());
        }
        return cyc;
    }

    /** Bookkeeping shared by every protocol run. */
    void
    account(const RunResult &r, const Simulator &sim, std::uint64_t events,
            std::uint64_t delivered, std::uint64_t &packets)
    {
        packets += delivered;
        ++runs_;
        if (!counting_)
            return;
        countEvents_ += events;
        countDelivered_ += delivered;
        countDepth_ = std::max(countDepth_, sim.maxQueueDepth());
        protoPackets_ += delivered;
        mixCounter(*digest_, r.counts.src);
        mixCounter(*digest_, r.counts.dst);
        mix(*digest_, r.elapsed);
        mix(*digest_, r.packets);
        mix(*digest_, r.acksSent);
        mix(*digest_, r.oooArrivals);
        mix(*digest_, delivered);
    }

    /**
     * @p runs protocol runs of item kind @p k; returns the host cycles
     * spent inside the runs (stack construction excluded).
     */
    std::uint64_t
    runKind(int k, int runs, std::uint64_t &packets, std::uint64_t &failed)
    {
        std::uint64_t cyc = 0;
        for (int i = 0; i < runs; ++i)
            cyc += runOnce(k, packets, failed);
        return cyc;
    }

    /** Runs @p fn (the timed part) and returns its host cycles. */
    template <class F>
    std::uint64_t
    timed(int k, F &&fn)
    {
        const std::uint64_t a0 = allocs();
        const std::uint64_t t0 = cycles();
        {
            Span sp(tracer_, spanKind_[k]);
            fn();
        }
        const std::uint64_t cyc = cycles() - t0;
        if (counting_)
            protoAllocs_ += allocs() - a0;
        return cyc;
    }

    std::uint64_t
    runOnce(int k, std::uint64_t &packets, std::uint64_t &failed)
    {
        ProtoParams pp;
        pp.words = kWords;
        std::uint64_t cyc = 0;
        RunResult r;
        if (k == kindXfer(0)) {
            if (memoryHigh(*xferStack_)) {
                buildXferCm5();
                ++rebuilds_;
            }
            Stack &st = *xferStack_;
            const std::uint64_t e0 = st.sim().eventsDispatched();
            const std::uint64_t d0 = st.network().stats().delivered;
            FiniteXferParams p;
            p.words = kWords;
            p.fillSeed = nextFill();
            cyc = timed(k, [&] { r = xferFx_->run(p); });
            const FeatureBreakdown want = cmamFiniteModel(pp);
            if (!r.dataOk ||
                !billMatches(r.counts.src, want, Direction::Source) ||
                !billMatches(r.counts.dst, want, Direction::Destination))
                ++failed;
            account(r, st.sim(), st.sim().eventsDispatched() - e0,
                    st.network().stats().delivered - d0, packets);
        } else if (k == kindStream(0)) {
            Stack &st = *streamStack_;
            const std::uint64_t e0 = st.sim().eventsDispatched();
            const std::uint64_t d0 = st.network().stats().delivered;
            StreamParams p;
            p.words = kWords;
            p.groupAck = kGroupAck;
            p.fillSeed = nextFill();
            cyc = timed(k, [&] { r = streamProto_->run(p); });
            pp.groupAck = kGroupAck;
            pp.oooFraction = 0.0;
            const FeatureBreakdown want = cmamStreamModel(pp);
            if (!r.dataOk || r.oooArrivals != 0 ||
                !billMatches(r.counts.src, want, Direction::Source) ||
                !billMatches(r.counts.dst, want, Direction::Destination))
                ++failed;
            account(r, st.sim(), st.sim().eventsDispatched() - e0,
                    st.network().stats().delivered - d0, packets);
        } else if (k == kindXfer(1) || k == kindStream(1)) {
            // cr runs the paper's Section-4 high-level layer, as
            // prof::runProfiled does for multi-packet protocols.
            const bool xfer = k == kindXfer(1);
            std::unique_ptr<HlStack> &h = xfer ? hlXfer_ : hlStream_;
            if (memoryHigh(*h)) {
                buildHl(h);
                ++rebuilds_;
            }
            HlStack &st = *h;
            const std::uint64_t e0 = st.sim().eventsDispatched();
            const std::uint64_t d0 = st.machine().network().stats().delivered;
            FeatureBreakdown want;
            if (xfer) {
                HlXferParams p;
                p.words = kWords;
                p.fillSeed = nextFill();
                cyc = timed(k, [&] { r = runHlFinite(st, p); });
                want = hlFiniteModel(pp);
            } else {
                HlStreamParams p;
                p.words = kWords;
                p.fillSeed = nextFill();
                cyc = timed(k, [&] { r = runHlStream(st, p); });
                want = hlStreamModel(pp);
            }
            if (!r.dataOk ||
                !billMatches(r.counts.src, want, Direction::Source) ||
                !billMatches(r.counts.dst, want, Direction::Destination))
                ++failed;
            account(r, st.sim(), st.sim().eventsDispatched() - e0,
                    st.machine().network().stats().delivered - d0, packets);
        } else if (k == 2 || k == kindXfer(2) || k == kindStream(2)) {
            // The verbs drivers are one-shot per stack (they bind QPs
            // and bump-allocate buffers), so each run gets a fresh
            // stack, built outside the timed region.
            RdmaStackConfig cfg;
            cfg.nodes = 2;
            cfg.cqCapacity = kRdmaCq;
            std::unique_ptr<RdmaStack> st;
            {
                Span sp(tracer_, spanBuild_);
                st = timedBuild<RdmaStack>(builds_["rdma"], cfg);
            }
            RdmaRunParams p;
            p.words = kWords;
            p.fillSeed = nextFill();
            cyc = timed(k, [&] {
                r = k == 2 ? runRdmaAm4(*st, p)
                    : k == kindXfer(2) ? runRdmaFinite(*st, p)
                                       : runRdmaStream(*st, p);
            });
            if (!r.dataOk)
                ++failed;
            account(r, st->sim(), st->sim().eventsDispatched(),
                    st->net().stats().delivered,
                    packets);
        } else if (k == 3 || k == kindXfer(3) || k == kindStream(3)) {
            NicamStackConfig cfg;
            cfg.nodes = 2;
            std::unique_ptr<NicamStack> st;
            {
                Span sp(tracer_, spanBuild_);
                st = timedBuild<NicamStack>(builds_["nicam"], cfg);
            }
            NicamRunParams p;
            p.words = kWords;
            p.fillSeed = nextFill();
            cyc = timed(k, [&] {
                r = k == 3 ? runNicamAm4(*st, p)
                    : k == kindXfer(3) ? runNicamFinite(*st, p)
                                       : runNicamStream(*st, p);
            });
            if (!r.dataOk)
                ++failed;
            account(r, st->sim(), st->sim().eventsDispatched(),
                    st->net().stats().delivered,
                    packets);
        } else {
            // One protocol object per stack: the mux run builds its
            // own channel, so it gets a fresh stack too.
            StackConfig cfg;
            cfg.nodes = 2;
            cfg.seed = derive(seed_, 212);
            std::unique_ptr<Stack> st;
            {
                Span sp(tracer_, spanBuild_);
                st = timedBuild<Stack>(builds_["cm5"], cfg);
            }
            const wire::WireWorkload w = wireWorkload(0);
            wire::WireRunResult wr;
            cyc = timed(k, [&] { wr = wire::runWireWorkload(*st, w); });
            if (!wr.run.dataOk || wr.crcRejects != 0 || wr.malformed != 0)
                ++failed;
            account(wr.run, st->sim(), st->sim().eventsDispatched(),
                    st->network().stats().delivered, packets);
        }
        return cyc;
    }

    std::uint64_t seed_;
    Tracer *tracer_ = nullptr;
    Am4 am4_[2];
    std::unique_ptr<Stack> xferStack_;
    std::unique_ptr<FiniteXfer> xferFx_;
    std::unique_ptr<Stack> streamStack_;
    std::unique_ptr<StreamProtocol> streamProto_;
    std::unique_ptr<HlStack> hlXfer_;
    std::unique_ptr<HlStack> hlStream_;
    std::vector<std::uint32_t> ops_;
    std::map<std::string, std::vector<double>> builds_;
    int spanKind_[kNumKinds] = {};
    int spanBuild_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t rebuilds_ = 0;

    // Count-pass state.
    bool counting_ = false;
    std::uint64_t *digest_ = nullptr;
    std::uint64_t countEvents_ = 0;
    std::uint64_t countDelivered_ = 0;
    std::size_t countDepth_ = 0;
    std::uint64_t protoAllocs_ = 0;
    std::uint64_t protoPackets_ = 0;
};

// ==================================================================
// traffic
// ==================================================================

/** Predicted and measured bills agree (composed double sums). */
bool
w1Agree(double predicted, double measured)
{
    const double scale =
        std::max(1.0, std::max(std::fabs(predicted), std::fabs(measured)));
    return std::fabs(predicted - measured) <= 1e-9 * scale;
}

class Traffic : public Workload
{
  public:
    explicit Traffic(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "traffic"; }

    std::vector<std::string>
    kinds() const override
    {
        return {"alltoall_seq.cm5", "alltoall_seq.rdma", "incast_acked.cm5",
                "incast_acked.rdma", "allreduce.ring",   "allreduce.rd"};
    }

    void
    setup() override
    {
        for (int s = 0; s < 2; ++s) {
            Fabric &f = fabrics_[s];
            f.engine.reset();
            f.stack = timedBuild<Stack>(builds_[s == 0 ? "cm5_64" : "rdma_64"],
                                        trafficStackConfig(jobSpec(0),
                                                           kSubs[s]));
            f.engine = std::make_unique<TrafficEngine>(*f.stack);
        }
        coll_.reset();
        StackConfig cfg;
        cfg.nodes = kNodes;
        cfg.seed = derive(seed_, 300);
        collStack_ = timedBuild<Stack>(builds_["cm5_64"], cfg);
        coll_ = std::make_unique<Collectives>(*collStack_);
        collIn_.resize(kNodes);
        collWant_ = 0;
        std::uint64_t s = derive(seed_, 301);
        for (Word &w : collIn_) {
            w = static_cast<Word>(splitMix64(s) & 0xffff);
            collWant_ += w;
        }
        ops_.reserve(kAllreducesPerItem);
    }

    void
    count(Metrics &counts, std::uint64_t &digest, Recorder &rec) override
    {
        double events = 0, delivered = 0, retries = 0, hwRetries = 0;
        std::size_t depth = 0;
        for (int s = 0; s < 2; ++s) {
            double frags = 0;
            std::uint64_t a = 0;
            for (int j = 0; j < 2; ++j) {
                JobOut o = job(s, j);
                rec.attempt(1, o.ok ? 0 : 1);
                frags += static_cast<double>(o.res.shape.fragmentsSent);
                a += o.allocs;
                events += static_cast<double>(o.events);
                delivered += static_cast<double>(o.delivered);
                retries += static_cast<double>(o.res.deliveryRetries);
                hwRetries += static_cast<double>(o.res.hwRetries);
                mix(digest, o.res.elapsed);
                mix(digest, o.res.shape.fragmentsSent);
                mix(digest, o.res.shape.acksSent);
                mix(digest, o.res.shape.polls);
                mix(digest, o.res.shape.ooo);
                mix(digest, o.res.deliveryRetries);
                mix(digest,
                    static_cast<std::uint64_t>(o.res.measuredGrandTotal()));
            }
            depth = std::max(depth, fabrics_[s].stack->sim().maxQueueDepth());
            mixStats(digest, fabrics_[s].stack->network().stats());
            counts.push_back({std::string("traffic.allocs_per_fragment.") +
                              kSubNames[s],
                              {ratio(static_cast<double>(a), frags),
                               "count"}});
        }
        for (int algo = 0; algo < 2; ++algo) {
            std::uint64_t failed = 0;
            allreduces(algo, 1, nullptr, failed);
            rec.attempt(1, failed);
        }
        mix(digest, collStack_->sim().now());
        mixStats(digest, collStack_->network().stats());
        counts.push_back({"sim.events_per_packet.traffic",
                          {ratio(events, delivered), "count"}});
        counts.push_back({"sim.max_queue_depth.traffic",
                          {static_cast<double>(depth), "count"}});
        counts.push_back({"net.delivery_retries_per_packet",
                          {ratio(retries, delivered), "count"}});
        counts.push_back({"net.hw_retries_per_packet",
                          {ratio(hwRetries, delivered), "count"}});
    }

    void
    batch(Recorder &rec) override
    {
        for (int s = 0; s < 2; ++s) {
            for (int j = 0; j < 2; ++j) {
                JobOut o = job(s, j);
                rec.attempt(1, o.ok ? 0 : 1);
                rec.item(j * 2 + s, o.cycles, o.delivered);
                if (tracer_ != nullptr) {
                    tracedFrags_[s] +=
                        static_cast<double>(o.res.shape.fragmentsSent);
                    tracedEvents_ += static_cast<double>(o.events);
                }
            }
        }
        // Short allreduce items, several per batch: the operation
        // percentiles pool the fast items' samples.
        for (int algo = 0; algo < 2; ++algo) {
            for (int i = 0; i < kAllreduceItems; ++i) {
                std::uint64_t failed = 0;
                const Network &net = collStack_->network();
                const std::uint64_t d0 = net.stats().delivered;
                const std::uint64_t cyc = allreduces(algo, kAllreducesPerItem,
                                                     &ops_, failed);
                rec.attempt(kAllreducesPerItem, failed);
                rec.item(4 + algo, cyc, net.stats().delivered - d0, &ops_);
            }
        }
    }

    void
    traced(const Tracer &t, Metrics &out) override
    {
        double jobNs = 0;
        for (int s = 0; s < 2; ++s) {
            const double ns = t.totalNs(std::string("traffic.alltoall_seq.") +
                                        kSubNames[s]) +
                              t.totalNs(std::string("traffic.incast_acked.") +
                                        kSubNames[s]);
            jobNs += ns;
            out.push_back({std::string("traffic.ns_per_fragment.") +
                           kSubNames[s],
                           {ratio(ns, tracedFrags_[s]), "ns"}});
        }
        out.push_back({"sim.run_ns_per_event.traffic",
                       {ratio(jobNs, tracedEvents_), "ns"}});
        out.push_back({"coll.allreduce_us.ring",
                       {t.meanNs("coll.allreduce.ring") / 1000.0, "us"}});
        out.push_back({"coll.allreduce_us.rd",
                       {t.meanNs("coll.allreduce.rd") / 1000.0, "us"}});
        out.push_back({"setup.stack_us.cm5_64",
                       {medianOf(builds_["cm5_64"]), "us"}});
        out.push_back({"setup.stack_us.rdma_64",
                       {medianOf(builds_["rdma_64"]), "us"}});
    }

    std::string
    stats() const override
    {
        std::string s;
        for (int i = 0; i < 2; ++i) {
            const NetStats &st = fabrics_[i].stack->network().stats();
            s += std::string(" ") + kSubNames[i] +
                 " delivered=" + std::to_string(st.delivered) +
                 " retries=" + std::to_string(st.deliveryRetries) + "@" +
                 std::to_string(fabrics_[i].stack->sim().now());
        }
        return "jobs:" + s + "; allreduce delivered=" +
               std::to_string(collStack_->network().stats().delivered);
    }

    void
    setTracer(Tracer *t) override
    {
        tracer_ = t;
        if (t == nullptr)
            return;
        const std::vector<std::string> names = kinds();
        for (int k = 0; k < 4; ++k)
            span_[k] = t->intern("traffic." +
                                 names[static_cast<std::size_t>(k)]);
        span_[4] = t->intern("coll.allreduce.ring");
        span_[5] = t->intern("coll.allreduce.rd");
    }

  private:
    static constexpr std::uint32_t kNodes = 64;
    static constexpr std::uint32_t kMessages = 256;
    static constexpr std::uint32_t kSizeWords = 8;
    static constexpr int kAllreduceItems = 5;
    static constexpr std::uint64_t kAllreducesPerItem = 20;
    static constexpr Substrate kSubs[] = {Substrate::Cm5, Substrate::Rdma};
    static constexpr const char *kSubNames[] = {"cm5", "rdma"};

    struct Fabric
    {
        std::unique_ptr<Stack> stack;
        std::unique_ptr<TrafficEngine> engine;
    };

    struct JobOut
    {
        TrafficResult res;
        bool ok = false;
        std::uint64_t cycles = 0;
        std::uint64_t delivered = 0;
        std::uint64_t events = 0;
        std::uint64_t allocs = 0;
    };

    /** Job 0: alltoall over the in-order protocol; 1: acked incast. */
    TrafficSpec
    jobSpec(int j) const
    {
        TrafficSpec spec;
        spec.pattern =
            j == 0 ? TrafficPattern::AllToAll : TrafficPattern::Incast;
        spec.proto = j == 0 ? TrafficProto::Seq : TrafficProto::Acked;
        spec.nodes = kNodes;
        spec.messagesPerNode = kMessages;
        spec.sizeWords = kSizeWords;
        spec.seed = derive(seed_, 310 + static_cast<std::uint64_t>(j));
        // Jitter makes cm5 reorder, so the seq stash does real work.
        spec.maxJitter = 3;
        return spec;
    }

    JobOut
    job(int s, int j)
    {
        Fabric &f = fabrics_[s];
        const TrafficSpec spec = jobSpec(j);
        JobOut o;
        const std::uint64_t e0 = f.stack->sim().eventsDispatched();
        const std::uint64_t d0 = f.stack->network().stats().delivered;
        const std::uint64_t a0 = allocs();
        const std::uint64_t t0 = cycles();
        {
            Span sp(tracer_, span_[j * 2 + s]);
            o.res = f.engine->run(spec);
        }
        o.cycles = cycles() - t0;
        o.allocs = allocs() - a0;
        o.events = f.stack->sim().eventsDispatched() - e0;
        o.delivered = f.stack->network().stats().delivered - d0;

        // The W1 oracle: the analytic predictor reproduces the
        // measured per-feature bill exactly, and the structural
        // counts are the analytic ones.
        const TrafficPrediction pred = predictTraffic(o.res.shape);
        bool ok = o.res.ok;
        for (int fe = 0; fe < numPaperFeatures; ++fe) {
            const CatCost &p = pred.feature[fe];
            const CatCost &m = o.res.measured[fe];
            ok = ok && w1Agree(p.reg, m.reg) && w1Agree(p.mem, m.mem) &&
                 w1Agree(p.dev, m.dev);
        }
        const std::uint64_t messages = std::uint64_t{kNodes} * kMessages;
        ok = ok && o.res.shape.fragmentsSent ==
                       messages * spec.fragmentsPerMessage();
        if (spec.proto == TrafficProto::Acked)
            ok = ok && o.res.shape.acksSent == messages;
        if (kSubs[s] == Substrate::Rdma)
            ok = ok && o.res.shape.ooo == 0 && o.res.hwRetries == 0;
        o.ok = ok;
        return o;
    }

    std::uint64_t
    allreduces(int algo, std::uint64_t n, std::vector<std::uint32_t> *ops,
               std::uint64_t &failed)
    {
        const Collectives::Algo a =
            algo == 0 ? Collectives::Algo::Ring
                      : Collectives::Algo::RecursiveDoubling;
        const std::uint64_t wantMsgs =
            expectedCollMessages(algo == 0 ? "ring" : "rd", kNodes);
        std::uint64_t cyc = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t t0 = cycles();
            Collectives::CollResult r;
            {
                Span sp(tracer_, span_[4 + algo]);
                r = coll_->allReduce(Collectives::ReduceOp::Sum, collIn_,
                                     collOut_, a);
            }
            const std::uint64_t dt = cycles() - t0;
            cyc += dt;
            if (ops != nullptr)
                ops->push_back(static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(dt, UINT32_MAX)));
            CollShape shape;
            shape.messages = r.messages;
            shape.delivered = r.messages;
            shape.polls = r.polls;
            bool ok = r.ok && r.messages == wantMsgs &&
                      w1Agree(predictCollective(shape).grandTotal(),
                              static_cast<double>(r.instructions)) &&
                      collOut_.size() == kNodes;
            for (Word w : collOut_)
                ok = ok && w == collWant_;
            if (!ok)
                ++failed;
        }
        return cyc;
    }

    std::uint64_t seed_;
    Tracer *tracer_ = nullptr;
    Fabric fabrics_[2];
    std::unique_ptr<Stack> collStack_;
    std::unique_ptr<Collectives> coll_;
    std::vector<Word> collIn_, collOut_;
    Word collWant_ = 0;
    std::vector<std::uint32_t> ops_;
    std::map<std::string, std::vector<double>> builds_;
    int span_[6] = {};
    double tracedFrags_[2] = {0, 0};
    double tracedEvents_ = 0;
};

// ==================================================================
// check
// ==================================================================

class Check : public Workload
{
  public:
    explicit Check(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "check"; }

    std::vector<std::string>
    kinds() const override
    {
        return {"explore.stream", "explore.wire_window", "replay.stream"};
    }

    void
    setup() override
    {
        check::ScenarioConfig stream;
        stream.protocol = "stream";
        check::ExploreLimits sl;
        sl.depth = 12;
        sl.walks = kWalks;
        sl.seed = derive(seed_, 400);
        check::ScenarioConfig wire;
        wire.protocol = "wire_window";
        wire.packets = kWirePackets;
        check::ExploreLimits wl;
        wl.depth = kWireDepth;
        wl.walks = kWalks;
        wl.seed = derive(seed_, 401);
        scen_[0] = {stream, sl, nullptr, 0, 0, 0};
        scen_[1] = {wire, wl, nullptr, 0, 0, 0};
        for (Scenario &s : scen_) {
            s.explorer = std::make_unique<check::Explorer>(s.cfg, s.lim);
            // One harness of each scenario: what every schedule builds.
            const std::uint64_t t0 = cycles();
            auto h = check::ScenarioHarness::make(s.cfg);
            builds_[s.cfg.protocol].push_back(toUs(cycles() - t0));
        }
        // Seeded schedules for the replay operations: mostly deliver
        // choices over the first packet ids, with a few faults (the
        // replay skips any choice that is not enabled).
        std::uint64_t st = derive(seed_, 402);
        replays_.assign(kReplayItems * kReplaysPerItem, {});
        for (auto &sched : replays_) {
            for (int i = 0; i < 40; ++i) {
                check::Choice c;
                const std::uint64_t r = splitMix64(st);
                c.kind = r % 16 == 0   ? check::ChoiceKind::Drop
                         : r % 16 == 1 ? check::ChoiceKind::Duplicate
                                       : check::ChoiceKind::Deliver;
                c.packetId = (r >> 8) % 8;
                sched.push_back(c);
            }
        }
        ops_.reserve(kReplaysPerItem);
        replaySteps_.assign(kReplayItems, 0);
        replayPackets_.assign(kReplayItems, 0);
    }

    void
    count(Metrics &counts, std::uint64_t &digest, Recorder &rec) override
    {
        for (int i = 0; i < 2; ++i) {
            Scenario &s = scen_[i];
            const std::uint64_t a0 = allocs();
            const check::CheckReport r = s.explorer->run();
            const double allocsPer =
                ratio(static_cast<double>(allocs() - a0),
                      static_cast<double>(r.schedulesRun));
            s.schedules = r.schedulesRun;
            s.steps = r.stepsTotal;
            rec.attempt(1, clean(r) ? 0 : 1);
            // Packets delivered per exploration, read from hostprof's
            // net.deliver scope (each schedule's network dies with
            // its harness).  A second, profiled exploration.
            s.packets = profiledDeliveries([&] { (void)s.explorer->run(); });
            const std::string tag = kTags[i];
            counts.push_back({"check.steps_per_schedule." + tag,
                              {ratio(static_cast<double>(r.stepsTotal),
                                     static_cast<double>(r.schedulesRun)),
                               "count"}});
            counts.push_back({"check.allocs_per_schedule." + tag,
                              {allocsPer, "count"}});
            mix(digest, r.schedulesRun);
            mix(digest, r.dfsSchedules);
            mix(digest, r.walkSchedules);
            mix(digest, r.stepsTotal);
            mix(digest, r.maxChoicePoints);
            mix(digest, r.violations);
            mix(digest, s.packets);
        }
        for (std::size_t r = 0; r < kReplayItems; ++r) {
            std::uint64_t failed = 0;
            replayPackets_[r] =
                profiledDeliveries([&] { replay(r, nullptr, failed); });
            rec.attempt(kReplaysPerItem, failed);
            mix(digest, replaySteps_[r]);
            mix(digest, replayPackets_[r]);
        }
    }

    void
    batch(Recorder &rec) override
    {
        for (int i = 0; i < 2; ++i) {
            Scenario &s = scen_[i];
            const std::uint64_t t0 = cycles();
            check::CheckReport r;
            {
                Span sp(tracer_, span_[i]);
                r = s.explorer->run();
            }
            const std::uint64_t cyc = cycles() - t0;
            const bool ok = clean(r) && r.schedulesRun == s.schedules &&
                            r.stepsTotal == s.steps;
            rec.attempt(1, ok ? 0 : 1);
            rec.item(i, cyc, s.packets);
            if (tracer_ != nullptr)
                tracedSchedules_[i] += static_cast<double>(r.schedulesRun);
        }
        for (std::size_t r = 0; r < kReplayItems; ++r) {
            std::uint64_t failed = 0;
            const std::uint64_t cyc = replay(r, &ops_, failed);
            rec.attempt(kReplaysPerItem, failed);
            rec.item(2, cyc, replayPackets_[r], &ops_);
        }
    }

    void
    traced(const Tracer &t, Metrics &out) override
    {
        double ns = 0, schedules = 0;
        for (int i = 0; i < 2; ++i) {
            const std::string tag = kTags[i];
            const double n = t.totalNs(std::string("check.explore.") + tag);
            out.push_back({"check.us_per_schedule." + tag,
                           {ratio(n, tracedSchedules_[i]) / 1000.0, "us"}});
            ns += n;
            schedules += tracedSchedules_[i];
        }
        out.push_back({"check.schedules_per_s",
                       {ratio(schedules, ns * 1e-9), "1/s"}});
        for (const char *p : {"stream", "wire_window"})
            out.push_back({std::string("setup.harness_us.") + p,
                           {medianOf(builds_[p]), "us"}});
    }

    std::string
    stats() const override
    {
        std::string s;
        for (int i = 0; i < 2; ++i)
            s += std::string(" ") + kTags[i] + " schedules=" +
                 std::to_string(scen_[i].schedules) + " steps=" +
                 std::to_string(scen_[i].steps) + " packets=" +
                 std::to_string(scen_[i].packets);
        std::uint64_t steps = 0, packets = 0;
        for (std::size_t r = 0; r < kReplayItems; ++r) {
            steps += replaySteps_[r];
            packets += replayPackets_[r];
        }
        return "explorations:" + s +
               "; replays steps=" + std::to_string(steps) +
               " packets=" + std::to_string(packets);
    }

    void
    extra(const Recorder &rec, Metrics &out) const override
    {
        out.push_back({"schedules_per_s",
                       {rec.perSecond({static_cast<double>(scen_[0].schedules),
                                       static_cast<double>(scen_[1].schedules),
                                       static_cast<double>(kReplaysPerItem)}),
                        "1/s"}});
    }

    void
    setTracer(Tracer *t) override
    {
        tracer_ = t;
        if (t == nullptr)
            return;
        span_[0] = t->intern("check.explore.stream");
        span_[1] = t->intern("check.explore.wire_window");
        span_[2] = t->intern("check.replay.stream");
    }

  private:
    static constexpr int kWalks = 32;
    // wire_window frames are long schedules (~60 steps): two packets
    // at depth 2 exhaust in about 60 ms.
    static constexpr std::uint32_t kWirePackets = 2;
    static constexpr int kWireDepth = 2;
    static constexpr std::size_t kReplayItems = 10;
    static constexpr std::size_t kReplaysPerItem = 50;
    static constexpr const char *kTags[] = {"stream", "wire_window"};

    struct Scenario
    {
        check::ScenarioConfig cfg;
        check::ExploreLimits lim;
        std::unique_ptr<check::Explorer> explorer;
        std::uint64_t schedules = 0;
        std::uint64_t steps = 0;
        std::uint64_t packets = 0;
    };

    static bool
    clean(const check::CheckReport &r)
    {
        return r.violations == 0 && r.exhausted && r.schedulesRun > 0;
    }

    template <class F>
    static std::uint64_t
    profiledDeliveries(F &&fn)
    {
        hostprof::HostProfiler hp;
        hp.attach();
        fn();
        hp.detach();
        std::uint64_t n = 0;
        for (const auto &row : hp.rows())
            if (row.site == hostprof::Site::NetDeliver)
                n += row.enters;
        return n;
    }

    /** Seeded schedules of item @p r, one by one, through Explorer::replay. */
    std::uint64_t
    replay(std::size_t r, std::vector<std::uint32_t> *ops,
           std::uint64_t &failed)
    {
        const check::Explorer &ex = *scen_[0].explorer;
        std::uint64_t steps = 0;
        const std::uint64_t start = cycles();
        std::uint64_t prev = start;
        const std::size_t first = r * kReplaysPerItem;
        for (std::size_t i = first; i < first + kReplaysPerItem; ++i) {
            check::ScheduleResult res;
            {
                Span sp(tracer_, span_[2]);
                res = ex.replay(replays_[i]);
            }
            if (res.violated || res.steps == 0)
                ++failed;
            steps += res.steps;
            if (ops != nullptr) {
                const std::uint64_t now = cycles();
                ops->push_back(static_cast<std::uint32_t>(now - prev));
                prev = now;
            }
        }
        const std::uint64_t cyc = cycles() - start;
        if (replaySteps_[r] == 0)
            replaySteps_[r] = steps;
        else if (steps != replaySteps_[r])
            ++failed;
        return cyc;
    }

    std::uint64_t seed_;
    Tracer *tracer_ = nullptr;
    Scenario scen_[2];
    std::vector<std::vector<check::Choice>> replays_;
    std::vector<std::uint64_t> replaySteps_;
    std::vector<std::uint64_t> replayPackets_;
    std::vector<std::uint32_t> ops_;
    std::map<std::string, std::vector<double>> builds_;
    int span_[3] = {};
    double tracedSchedules_[2] = {0, 0};
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"pump", "stack",
                                                   "traffic", "check"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "pump")
        return std::make_unique<Pump>(seed);
    if (name == "stack")
        return std::make_unique<StackWl>(seed);
    if (name == "traffic")
        return std::make_unique<Traffic>(seed);
    if (name == "check")
        return std::make_unique<Check>(seed);
    return nullptr;
}

} // namespace hostbench
