/**
 * @file
 * Exact per-packet heap-allocation gate on the fabric hot path.
 *
 * Packets are built before the measured window and moved into
 * Network::inject.  Everything from there to the sink (fault
 * verdicts, route latency, the packet carry across the event queue,
 * order-policy release, refusal retries) must then allocate nothing
 * once the carry pool and the event heap have grown to their steady
 * size.  Counted with the process-wide interposed operator new, so
 * the gate is deterministic: the number is exact, not a timing.
 *
 * The same holds one level up, for the active-message path on the
 * CMAM stacks (AmPath) and for a traffic engine's per-fragment work
 * (TrafficEngineAllocs).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "hostprof/hostprof.hh"
#include "nicam/nicam_network.hh"
#include "net/order.hh"
#include "rdmanet/rdma_network.hh"
#include "protocols/stack.hh"
#include "sim/event.hh"
#include "traffic/engine.hh"

namespace msgsim
{
namespace
{

enum class Fabric { Cm5, Cr, Rdma, Nicam };

constexpr int kWarmPackets = 200;
constexpr int kMeasuredPackets = 500;

const char *
name(Fabric f)
{
    switch (f) {
      case Fabric::Cm5:   return "cm5";
      case Fabric::Cr:    return "cr";
      case Fabric::Rdma:  return "rdma";
      case Fabric::Nicam: return "nicam";
    }
    return "?";
}

/** One fabric with a counting sink at node 1. */
struct Rig
{
    Simulator sim;
    std::unique_ptr<Network> net;
    std::uint32_t words = 4;
    std::uint64_t delivered = 0;
    /// When set, the sink refuses every other offer, so each packet
    /// is refused once and accepted on its retry.
    bool refuseAlternate = false;
    std::uint64_t offers = 0;

    bool
    sink(const Packet &p)
    {
        if (refuseAlternate && offers++ % 2 == 0)
            return false;
        delivered += p.data.size() == words ? 1 : 0;
        return true;
    }
};

std::unique_ptr<Network>
makeNet(Fabric f, Simulator &sim, std::uint32_t nodes,
        OrderPolicyFactory order = nullptr,
        const FaultInjector::Config &faults = {})
{
    switch (f) {
      case Fabric::Cm5: {
        Cm5Network::Config cfg;
        cfg.nodes = nodes;
        cfg.orderFactory = std::move(order);
        cfg.faults = faults;
        return std::make_unique<Cm5Network>(sim, cfg);
      }
      case Fabric::Cr: {
        CrNetwork::Config cfg;
        cfg.nodes = nodes;
        cfg.faults = faults;
        return std::make_unique<CrNetwork>(sim, cfg);
      }
      case Fabric::Rdma: {
        RdmaNetwork::Config cfg;
        cfg.nodes = nodes;
        cfg.faults = faults;
        return std::make_unique<RdmaNetwork>(sim, cfg);
      }
      case Fabric::Nicam: {
        NicamNetwork::Config cfg;
        cfg.nodes = nodes;
        cfg.orderFactory = std::move(order);
        cfg.faults = faults;
        return std::make_unique<NicamNetwork>(sim, cfg);
      }
    }
    return nullptr;
}

std::unique_ptr<Rig>
makeRig(Fabric f, std::uint32_t words, OrderPolicyFactory order = nullptr,
        const FaultInjector::Config &faults = {})
{
    auto rig = std::make_unique<Rig>();
    rig->words = words;
    rig->net = makeNet(f, rig->sim, 4, std::move(order), faults);
    Rig *r = rig.get();
    rig->net->attach(1, [r](Packet &&p) { return r->sink(p); });
    return rig;
}

std::vector<Packet>
makePackets(int n, std::uint32_t words)
{
    std::vector<Packet> pkts;
    pkts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        pkts.emplace_back(0, 1, HwTag::UserAm, static_cast<Word>(i),
                          std::vector<Word>(words, 0xa5u + i));
    return pkts;
}

/**
 * Warm @p rig up, then return the heap allocations made while
 * injecting and delivering kMeasuredPackets prebuilt packets one at
 * a time.
 */
std::uint64_t
measuredAllocs(Rig &rig)
{
    for (Packet &p : makePackets(kWarmPackets, rig.words)) {
        rig.net->inject(std::move(p));
        rig.sim.run();
    }
    std::vector<Packet> pkts = makePackets(kMeasuredPackets, rig.words);
    const std::uint64_t before = hostprof::globalAllocCount();
    for (Packet &p : pkts) {
        rig.net->inject(std::move(p));
        rig.sim.run();
    }
    return hostprof::globalAllocCount() - before;
}

class HotPath
    : public ::testing::TestWithParam<std::tuple<Fabric, std::uint32_t>>
{
};

TEST_P(HotPath, ZeroAllocationsPerPacket)
{
    const auto [fabric, words] = GetParam();
    auto rig = makeRig(fabric, words);
    EXPECT_EQ(measuredAllocs(*rig), 0u);
    EXPECT_EQ(rig->delivered,
              static_cast<std::uint64_t>(kWarmPackets + kMeasuredPackets));
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, HotPath,
    ::testing::Combine(::testing::Values(Fabric::Cm5, Fabric::Cr,
                                         Fabric::Rdma, Fabric::Nicam),
                       ::testing::Values(4u, 128u)),
    [](const auto &info) {
        return std::string(name(std::get<0>(info.param))) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

TEST(HotPath, Cm5ReleaseBufferIsReused)
{
    // Swap-adjacent holds every other packet and releases two at
    // once: the order stage's release buffer must be reused.
    auto rig = makeRig(Fabric::Cm5, 4, swapAdjacentFactory());
    EXPECT_EQ(measuredAllocs(*rig), 0u);
    EXPECT_EQ(rig->delivered,
              static_cast<std::uint64_t>(kWarmPackets + kMeasuredPackets));
}

TEST(HotPath, Cm5RefusalRetryCarryIsPooled)
{
    // Every packet is refused once and carried to its retry.
    auto rig = makeRig(Fabric::Cm5, 4);
    rig->refuseAlternate = true;
    EXPECT_EQ(measuredAllocs(*rig), 0u);
    EXPECT_EQ(rig->delivered,
              static_cast<std::uint64_t>(kWarmPackets + kMeasuredPackets));
    EXPECT_EQ(rig->net->stats().deliveryRetries,
              static_cast<std::uint64_t>(kWarmPackets + kMeasuredPackets));
}

TEST(HotPath, CrHardwareRetryVerdictsDoNotCopy)
{
    // Faults on a reliable fabric are retransmission verdicts only:
    // the packet is never copied to probe the injector.
    FaultInjector::Config faults;
    faults.dropRate = 0.2;
    faults.corruptRate = 0.2;
    auto rig = makeRig(Fabric::Cr, 4, nullptr, faults);
    EXPECT_EQ(measuredAllocs(*rig), 0u);
    EXPECT_GT(rig->net->stats().hwRetries, 0u);
    EXPECT_EQ(rig->delivered,
              static_cast<std::uint64_t>(kWarmPackets + kMeasuredPackets));
}

class ManyFlows : public ::testing::TestWithParam<Fabric>
{
};

TEST_P(ManyFlows, AllToAllSecondPassAllocatesNothing)
{
    // 64 nodes, one packet on every (src, dst, vnet) flow per pass,
    // all in flight at once.  The first pass sizes the flow tables
    // and creates every flow's state; the second allocates nothing.
    constexpr std::uint32_t nodes = 64;
    Simulator sim;
    auto net = makeNet(GetParam(), sim, nodes);
    std::uint64_t delivered = 0;
    for (NodeId d = 0; d < nodes; ++d)
        net->attach(d, [&](Packet &&) {
            ++delivered;
            return true;
        });

    auto onePerFlow = [&] {
        std::vector<Packet> pkts;
        pkts.reserve(nodes * nodes * Network::numVnets);
        for (NodeId s = 0; s < nodes; ++s)
            for (NodeId d = 0; d < nodes; ++d)
                for (int v = 0; v < Network::numVnets; ++v) {
                    pkts.emplace_back(s, d, HwTag::UserAm, s ^ d,
                                      std::vector<Word>(4, s + d));
                    pkts.back().vnet = static_cast<std::uint8_t>(v);
                }
        return pkts;
    };
    const std::uint64_t flows = nodes * nodes * Network::numVnets;
    for (Packet &p : onePerFlow())
        net->inject(std::move(p));
    sim.run();
    ASSERT_EQ(delivered, flows);

    std::vector<Packet> second = onePerFlow();
    const std::uint64_t before = hostprof::globalAllocCount();
    for (Packet &p : second)
        net->inject(std::move(p));
    sim.run();
    EXPECT_EQ(hostprof::globalAllocCount() - before, 0u);
    EXPECT_EQ(delivered, 2 * flows);
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, ManyFlows,
    ::testing::Values(Fabric::Cm5, Fabric::Cr, Fabric::Rdma,
                      Fabric::Nicam),
    [](const auto &info) { return std::string(name(info.param)); });

class BackedUpFlow : public ::testing::TestWithParam<Fabric>
{
};

TEST_P(BackedUpFlow, RefusalBacklogAllocatesNothing)
{
    // Bursts of packets on one in-order flow behind a sink that
    // refuses 3 of every 4 offers: the flow's queue holds a backlog
    // of up to a burst and cycles through it.  Once it has grown to
    // that size, thousands more packets allocate nothing.
    constexpr int burst = 64;
    constexpr int warmBursts = 10;
    constexpr int measuredBursts = 80; // 5,120 packets
    Simulator sim;
    auto net = makeNet(GetParam(), sim, 4);
    std::uint64_t offers = 0;
    std::vector<Word> got;
    got.reserve(static_cast<std::size_t>(burst) *
                (warmBursts + measuredBursts));
    net->attach(1, [&](Packet &&p) {
        if (offers++ % 4 != 3)
            return false;
        got.push_back(p.header);
        return true;
    });

    Word next = 0;
    auto run = [&](int bursts) {
        std::vector<Packet> pkts;
        pkts.reserve(static_cast<std::size_t>(burst) * bursts);
        for (int i = 0; i < burst * bursts; ++i)
            pkts.emplace_back(0, 1, HwTag::UserAm, next + i,
                              std::vector<Word>(4, next + i));
        next += static_cast<Word>(burst * bursts);
        const std::uint64_t before = hostprof::globalAllocCount();
        for (int b = 0; b < bursts; ++b) {
            for (int i = 0; i < burst; ++i)
                net->inject(std::move(pkts[b * burst + i]));
            sim.run();
        }
        return hostprof::globalAllocCount() - before;
    };
    run(warmBursts);
    EXPECT_EQ(run(measuredBursts), 0u);

    ASSERT_EQ(got.size(), static_cast<std::size_t>(next));
    for (Word i = 0; i < next; ++i)
        ASSERT_EQ(got[i], i) << "order broken";
    EXPECT_EQ(net->stats().deliveryRetries, 3 * std::uint64_t{next});
}

INSTANTIATE_TEST_SUITE_P(
    InOrderFabrics, BackedUpFlow,
    ::testing::Values(Fabric::Cr, Fabric::Rdma),
    [](const auto &info) { return std::string(name(info.param)); });

// ----------------------------------------------------------------
// The active-message path above the fabric: am4 from the caller's
// braced list through the NI's staged payload, the receive FIFO and
// the handler's args, and the reply back.
// ----------------------------------------------------------------

template <Substrate S>
struct On
{
    static constexpr Substrate substrate = S;
};

template <class T>
class AmPath : public ::testing::Test
{
};

struct SubstrateName
{
    template <class T>
    static std::string
    GetName(int)
    {
        return toString(T::substrate);
    }
};

using CmamSubstrates = ::testing::Types<On<Substrate::Cm5>,
                                        On<Substrate::Cr>,
                                        On<Substrate::Rdma>>;
TYPED_TEST_SUITE(AmPath, CmamSubstrates, SubstrateName);

TYPED_TEST(AmPath, RequestReplyRoundsAllocateNothing)
{
    StackConfig cfg;
    cfg.nodes = 2;
    cfg.substrate = TypeParam::substrate;
    Stack stack(cfg);
    Cmam &client = stack.cmam(0);
    Cmam &server = stack.cmam(1);

    std::uint64_t replies = 0, controls = 0, bad = 0;
    const int hReply = client.registerHandler(
        [&](NodeId, const std::vector<Word> &args) {
            ++replies;
            bad += args.size() != 4 || args[1] != 7;
        });
    const int hRequest = server.registerHandler(
        [&](NodeId src, const std::vector<Word> &args) {
            server.am4Reply(src, hReply, {args[0] + 1, 7});
        });
    server.setControlSink(
        CtrlOp::GenericA,
        [&](NodeId, Word arg, const std::vector<Word> &args) {
            ++controls;
            bad += args.size() != 4 || args[0] != arg;
        });

    auto rounds = [&](Word n) {
        for (Word i = 0; i < n; ++i) {
            client.am4(1, hRequest, {i, 2, 3, 4});
            client.sendTagged(HwTag::UserAm, 1,
                              hdr::pack(static_cast<std::uint32_t>(
                                            hRequest),
                                        0),
                              {i});
            client.sendControl(1, CtrlOp::GenericA, i & 0xff,
                               {i & 0xff, 9});
            stack.settle();
            server.poll();
            stack.settle();
            client.poll();
        }
    };
    rounds(100);
    const std::uint64_t before = hostprof::globalAllocCount();
    rounds(1000);
    EXPECT_EQ(hostprof::globalAllocCount() - before, 0u);
    EXPECT_EQ(replies, 2 * 1100u);
    EXPECT_EQ(controls, 1100u);
    EXPECT_EQ(bad, 0u);
}

/** Heap allocations made by one engine run of @p spec. */
std::uint64_t
runAllocs(TrafficEngine &engine, const TrafficSpec &spec)
{
    const std::uint64_t before = hostprof::globalAllocCount();
    const TrafficResult res = engine.run(spec);
    const std::uint64_t allocs = hostprof::globalAllocCount() - before;
    EXPECT_TRUE(res.ok);
    if (spec.proto == TrafficProto::Seq) {
        EXPECT_GT(res.shape.ooo, 0u) << "the reorder stash sat idle";
    }
    return allocs;
}

/**
 * On a warmed engine, a run's allocations do not depend on how many
 * messages it carries: only per-run set-up allocates, never a
 * fragment.
 */
void
expectRunAllocsFlat(Substrate sub, TrafficPattern pattern,
                    TrafficProto proto, Tick jitter)
{
    TrafficSpec spec;
    spec.pattern = pattern;
    spec.proto = proto;
    spec.nodes = 16;
    spec.sizeWords = 8; // 4 fragments per message
    spec.maxJitter = jitter;
    Stack stack(trafficStackConfig(spec, sub));
    TrafficEngine engine(stack);

    TrafficSpec small = spec, large = spec;
    small.messagesPerNode = 64;
    large.messagesPerNode = 256;
    for (int i = 0; i < 2; ++i) {
        runAllocs(engine, large);
        runAllocs(engine, small);
    }
    EXPECT_EQ(runAllocs(engine, small), runAllocs(engine, large));
}

TEST(TrafficEngineAllocs, Cm5SeqWithJitterIsFlatInMessageCount)
{
    expectRunAllocsFlat(Substrate::Cm5, TrafficPattern::AllToAll,
                        TrafficProto::Seq, 3);
}

TEST(TrafficEngineAllocs, RdmaAckedIsFlatInMessageCount)
{
    expectRunAllocsFlat(Substrate::Rdma, TrafficPattern::Incast,
                        TrafficProto::Acked, 0);
}

} // namespace
} // namespace msgsim
