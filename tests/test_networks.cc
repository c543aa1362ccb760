/**
 * @file
 * Behavioural tests of the two routing substrates: the CM-5-like
 * network really delivers out of order, backpressures, and only
 * *detects* faults; the CR network really delivers in order, rejects
 * and retries in hardware, and corrects faults invisibly.  Also the
 * sink refusal contract: a refusing sink leaves the packet untouched,
 * and the in-order fabrics redeliver it unchanged.  Finally, the
 * fabric equivalences: NicamNetwork with no matching handler is
 * Cm5Network, and RdmaNetwork is CrNetwork, delivery for delivery.
 * And flow ids outside the fabric panic at injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "cm5net/cm5_network.hh"
#include "crnet/cr_network.hh"
#include "net/order.hh"
#include "ni/net_iface.hh"
#include "nicam/nicam_network.hh"
#include "packet_match.hh"
#include "rdmanet/rdma_network.hh"
#include "sim/event.hh"
#include "sim/log.hh"

namespace msgsim
{
namespace
{

Packet
mkPacket(NodeId src, NodeId dst, Word tagval)
{
    return Packet(src, dst, HwTag::StreamData, tagval,
                  {tagval, tagval + 1, tagval + 2, tagval + 3});
}

TEST(Cm5Network, DeliversAllPacketsFifoByDefault)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 20; ++i)
        EXPECT_TRUE(net.inject(mkPacket(0, 1, i)));
    sim.run();
    ASSERT_EQ(got.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], i);
    EXPECT_EQ(net.stats().injected, 20u);
    EXPECT_EQ(net.stats().delivered, 20u);
}

TEST(Cm5Network, JitterProducesGenuineReordering)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 16;
    cfg.maxJitter = 50;
    cfg.seed = 7;
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(5, [&](Packet &&p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 200; ++i)
        EXPECT_TRUE(net.inject(mkPacket(0, 5, i)));
    sim.run();
    ASSERT_EQ(got.size(), 200u);
    int inversions = 0;
    for (std::size_t i = 1; i < got.size(); ++i)
        inversions += got[i] < got[i - 1];
    EXPECT_GT(inversions, 10); // arbitrary delivery order, for real
}

TEST(Cm5Network, SwapAdjacentPolicyScramblesDeterministically)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.orderFactory = swapAdjacentFactory();
    Cm5Network net(sim, cfg);

    std::vector<Word> got;
    net.attach(2, [&](Packet &&p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 6; ++i)
        net.inject(mkPacket(0, 2, i));
    sim.run();
    EXPECT_EQ(got, (std::vector<Word>{1, 0, 3, 2, 5, 4}));
}

TEST(Cm5Network, FlushReleasesHeldPacketsInFlowOrder)
{
    // One packet held by the swap-adjacent stage of each of several
    // flows, the flows first touched in scrambled order; a two-packet
    // flow that holds nothing.  Flushing releases the held packets in
    // ascending (src, dst, vnet) order, whatever the touch order.
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.orderFactory = swapAdjacentFactory();
    Cm5Network net(sim, cfg);

    using Flow = std::tuple<NodeId, NodeId, int>;
    std::vector<Flow> got;
    for (NodeId d = 0; d < 4; ++d) {
        net.attach(d, [&](Packet &&p) {
            got.emplace_back(p.src, p.dst, p.vnet);
            return true;
        });
    }
    const std::vector<Flow> held = {{3, 0, 1}, {0, 2, 0}, {2, 1, 0},
                                    {0, 2, 1}, {1, 3, 0}, {0, 1, 0},
                                    {3, 0, 0}};
    for (const auto &[src, dst, vnet] : held) {
        Packet p = mkPacket(src, dst, 0);
        p.vnet = static_cast<std::uint8_t>(vnet);
        ASSERT_TRUE(net.inject(std::move(p)));
        sim.run();
    }
    for (Word i = 0; i < 2; ++i)
        ASSERT_TRUE(net.inject(mkPacket(1, 0, i)));
    sim.run();
    ASSERT_EQ(got, (std::vector<Flow>{{1, 0, 0}, {1, 0, 0}}));

    got.clear();
    net.flushHeldPackets();
    sim.run();
    std::vector<Flow> sorted = held;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(got, sorted);

    // Nothing is held any more: a second flush releases nothing.
    got.clear();
    net.flushHeldPackets();
    sim.run();
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(net.stats().delivered, held.size() + 2);
}

TEST(Cm5Network, BackpressureRetriesUntilSinkAccepts)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);

    int refusals_left = 3;
    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        if (refusals_left > 0) {
            --refusals_left;
            return false;
        }
        got.push_back(p.header);
        return true;
    });
    net.inject(mkPacket(0, 1, 42));
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42u);
    EXPECT_EQ(net.stats().deliveryRetries, 3u);
}

TEST(Cm5Network, DropsAreSilent)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);
    net.faults().scriptDrop(0);

    int delivered = 0;
    net.attach(1, [&](Packet &&) {
        ++delivered;
        return true;
    });
    net.inject(mkPacket(0, 1, 1));
    net.inject(mkPacket(0, 1, 2));
    sim.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(Cm5Network, CorruptionTravelsToSink)
{
    // Detection happens at the NI, not inside the network: a
    // corrupted packet is still delivered, with a failing checksum.
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    Cm5Network net(sim, cfg);
    net.faults().scriptCorrupt(0);

    bool saw_bad = false;
    net.attach(1, [&](Packet &&p) {
        saw_bad = !p.checksumOk();
        return true;
    });
    net.inject(mkPacket(0, 1, 9));
    sim.run();
    EXPECT_TRUE(saw_bad);
    EXPECT_EQ(net.stats().corrupted, 1u);
}

TEST(Cm5Network, InjectBusyRefusesAtInjection)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 4;
    cfg.injectBusyRate = 1.0;
    Cm5Network net(sim, cfg);
    net.attach(1, [](Packet &&) { return true; });
    EXPECT_FALSE(net.inject(mkPacket(0, 1, 0)));
    EXPECT_EQ(net.stats().injected, 0u);
}

TEST(Cm5Network, FartherNodesTakeLonger)
{
    Simulator sim;
    Cm5Network::Config cfg;
    cfg.nodes = 16;
    static_assert(Cm5Network::arity == 4); // node 4 is a subtree away
    Cm5Network net(sim, cfg);

    std::map<NodeId, Tick> arrival;
    for (NodeId d : {1u, 4u}) {
        net.attach(d, [&, d](Packet &&) {
            arrival[d] = sim.now();
            return true;
        });
        net.inject(mkPacket(0, d, 0));
    }
    sim.run();
    // Node 1 shares a leaf switch with node 0; node 4 needs an extra
    // level.
    EXPECT_LT(arrival[1], arrival[4]);
}

// --- CR network ----------------------------------------------------

TEST(CrNetwork, InOrderAlways)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 16;
    CrNetwork net(sim, cfg);

    std::vector<Word> got;
    net.attach(3, [&](Packet &&p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 100; ++i)
        net.inject(mkPacket(0, 3, i));
    sim.run();
    ASSERT_EQ(got.size(), 100u);
    for (Word i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(CrNetwork, FaultsAreCorrectedInHardware)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    cfg.faults.dropRate = 0.3;
    cfg.faults.corruptRate = 0.2;
    cfg.faults.seed = 5;
    CrNetwork net(sim, cfg);

    std::vector<Word> got;
    int bad = 0;
    net.attach(1, [&](Packet &&p) {
        got.push_back(p.header);
        bad += !p.checksumOk();
        return true;
    });
    for (Word i = 0; i < 200; ++i)
        net.inject(mkPacket(0, 1, i));
    sim.run();
    ASSERT_EQ(got.size(), 200u); // reliable delivery
    EXPECT_EQ(bad, 0);           // never corrupted to software
    EXPECT_GT(net.stats().hwRetries, 0u); // the hardware worked for it
    for (Word i = 0; i < 200; ++i)
        EXPECT_EQ(got[i], i); // order preserved across retries
}

TEST(CrNetwork, RejectionRetriesPreserveOrder)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    CrNetwork net(sim, cfg);

    // The sink rejects the FIRST packet three times; later packets
    // must still arrive after it.
    int refusals_left = 3;
    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        if (p.header == 0 && refusals_left > 0) {
            --refusals_left;
            return false;
        }
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 5; ++i)
        net.inject(mkPacket(0, 1, i));
    sim.run();
    EXPECT_EQ(got, (std::vector<Word>{0, 1, 2, 3, 4}));
    EXPECT_EQ(net.stats().deliveryRetries, 3u);
}

TEST(CrNetwork, IndependentFlowsDontBlockEachOther)
{
    Simulator sim;
    CrNetwork::Config cfg;
    cfg.nodes = 4;
    CrNetwork net(sim, cfg);

    std::vector<std::pair<NodeId, Word>> got;
    bool reject0 = true;
    net.attach(1, [&](Packet &&p) {
        if (p.src == 0 && reject0)
            return false; // flow 0->1 stuck
        got.emplace_back(p.src, p.header);
        return true;
    });
    net.inject(mkPacket(0, 1, 100));
    net.inject(mkPacket(2, 1, 200));
    sim.runUntil([&] { return !got.empty(); });
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0].first, 2u); // the other flow progressed
    reject0 = false;
    sim.run();
    ASSERT_EQ(got.size(), 2u);
}

// ----------------------------------------------------------------
// Sink refusal contract (Network::DeliverFn).
// ----------------------------------------------------------------

Packet
sealed(Packet p)
{
    p.seal();
    return p;
}

TEST(SinkContract, NiRecvQueueFullRefusalLeavesPacketIntact)
{
    Simulator sim;
    Cm5Network net(sim, Cm5Network::Config{});
    NetIface::Config cfg;
    cfg.recvCapacity = 2;
    NetIface ni(1, net, cfg);
    for (Word i = 0; i < 2; ++i)
        ASSERT_TRUE(ni.hwDeliver(sealed(mkPacket(0, 1, i))));

    Packet p = sealed(mkPacket(0, 1, 9));
    p.injectSeq = 41;
    p.lineage = 5;
    const Packet before = p;
    EXPECT_FALSE(ni.hwDeliver(std::move(p)));
    EXPECT_TRUE(samePacket(p, before));
    EXPECT_EQ(ni.recvRefusals(), 1u);
}

TEST(SinkContract, NiHeaderRejectionLeavesPacketIntact)
{
    Simulator sim;
    CrNetwork net(sim, CrNetwork::Config{});
    NetIface ni(1, net, NetIface::Config{});
    ni.setAcceptFn([](const Packet &) { return false; });

    Packet p = sealed(mkPacket(0, 1, 3));
    const Packet before = p;
    EXPECT_FALSE(ni.hwDeliver(std::move(p)));
    EXPECT_TRUE(samePacket(p, before));
    EXPECT_EQ(ni.acceptRefusals(), 1u);
}

template <typename Net>
class InOrderRefusal : public ::testing::Test
{
};

using InOrderFabrics = ::testing::Types<CrNetwork, RdmaNetwork>;
TYPED_TEST_SUITE(InOrderRefusal, InOrderFabrics);

TYPED_TEST(InOrderRefusal, RedeliversIdenticalPayloadInOrder)
{
    // Packet k is refused (k % 3) + 1 times before the sink takes it.
    // Injected back to back (younger packets queue behind a refused
    // one) and spaced out (each arrives at an empty flow).
    for (const bool spaced : {false, true}) {
        Simulator sim;
        typename TypeParam::Config cfg;
        cfg.nodes = 4;
        TypeParam net(sim, cfg);

        std::vector<Packet> got;
        std::optional<Packet> lastRefused;
        int refusalsLeft = -1;
        std::uint64_t refusals = 0;
        net.attach(1, [&](Packet &&p) {
            if (lastRefused) {
                // Offered again exactly as it was refused.
                EXPECT_TRUE(samePacket(p, *lastRefused));
                lastRefused.reset();
            }
            if (refusalsLeft < 0)
                refusalsLeft = static_cast<int>(got.size() % 3) + 1;
            if (refusalsLeft > 0) {
                --refusalsLeft;
                ++refusals;
                lastRefused = p;
                return false;
            }
            refusalsLeft = -1;
            got.push_back(std::move(p));
            return true;
        });

        const Word n = 24;
        for (Word i = 0; i < n; ++i) {
            net.inject(Packet(0, 1, HwTag::XferData, i,
                              {i, ~i, i * 7, 0xc0de0000u + i}));
            if (spaced)
                sim.run();
        }
        sim.run();

        ASSERT_EQ(got.size(), n) << "spaced=" << spaced;
        for (Word i = 0; i < n; ++i) {
            EXPECT_EQ(got[i].header, i);
            EXPECT_EQ(got[i].data,
                      (std::vector<Word>{i, ~i, i * 7, 0xc0de0000u + i}));
            EXPECT_EQ(got[i].injectSeq, i);
            EXPECT_TRUE(got[i].checksumOk());
        }
        EXPECT_EQ(net.stats().deliveryRetries, refusals);
        EXPECT_EQ(net.stats().delivered, static_cast<std::uint64_t>(n));
    }
}

// ----------------------------------------------------------------
// Fabric equivalence: nicam is the CM-5 fabric plus a handler table,
// rdma is the CR fabric plus verbs host features.  Driven identically,
// each pair must deliver the same packets at the same ticks.
// ----------------------------------------------------------------

struct FabricRun
{
    /// (tick, src, dst, injectSeq, payload, crc) per accepted packet.
    std::vector<std::tuple<Tick, NodeId, NodeId, std::uint64_t,
                           std::vector<Word>, Word>>
        deliveries;
    NetStats stats;
};

auto
statsTuple(const NetStats &s)
{
    return std::make_tuple(s.injected, s.delivered, s.dropped,
                           s.corrupted, s.duplicated, s.deliveryRetries,
                           s.hwRetries);
}

/**
 * 240 packets among 8 nodes, four injected per tick, into sinks that
 * refuse every third offer; run to quiescence, flushing held packets.
 */
FabricRun
driveFabric(Simulator &sim, Network &net)
{
    constexpr NodeId nodes = 8;
    FabricRun run;
    std::vector<std::uint64_t> offers(nodes, 0);
    for (NodeId d = 0; d < nodes; ++d) {
        net.attach(d, [&, d](Packet &&p) {
            if (++offers[d] % 3 == 0)
                return false;
            run.deliveries.emplace_back(sim.now(), p.src, p.dst,
                                        p.injectSeq, p.data, p.crc);
            return true;
        });
    }
    for (Word i = 0; i < 240; ++i) {
        const NodeId src = i % nodes;
        const NodeId dst = (src + 1 + i % 5) % nodes;
        sim.scheduleAt(i / 4, [&net, src, dst, i] {
            net.inject(Packet(src, dst, HwTag::StreamData, i,
                              {i, ~i, i * 7, 0xfab00000u + i}));
        });
    }
    sim.run();
    net.flushHeldPackets();
    sim.run();
    run.stats = net.stats();
    return run;
}

void
expectSameRun(const FabricRun &a, const FabricRun &b)
{
    EXPECT_EQ(statsTuple(a.stats), statsTuple(b.stats));
    ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
    for (std::size_t i = 0; i < a.deliveries.size(); ++i)
        ASSERT_TRUE(a.deliveries[i] == b.deliveries[i])
            << "delivery " << i << " differs";
}

Cm5Network::Config
scrambledCm5Config()
{
    Cm5Network::Config cfg;
    cfg.nodes = 8;
    cfg.seed = 77;
    cfg.maxJitter = 6;
    cfg.orderFactory = swapAdjacentFactory();
    cfg.faults.dropRate = 0.05;
    cfg.faults.corruptRate = 0.05;
    cfg.faults.duplicateRate = 0.05;
    cfg.faults.seed = 1234;
    return cfg;
}

FabricRun
cm5Run()
{
    Simulator sim;
    Cm5Network net(sim, scrambledCm5Config());
    return driveFabric(sim, net);
}

TEST(FabricEquivalence, NicamWithEmptyTableIsCm5)
{
    const FabricRun cm5 = cm5Run();
    // The workload exercises every CM-5 mechanism being compared.
    EXPECT_GT(cm5.stats.dropped, 0u);
    EXPECT_GT(cm5.stats.corrupted, 0u);
    EXPECT_GT(cm5.stats.duplicated, 0u);
    EXPECT_GT(cm5.stats.deliveryRetries, 0u);

    Simulator sim;
    NicamNetwork::Config cfg;
    static_cast<Cm5Network::Config &>(cfg) = scrambledCm5Config();
    NicamNetwork net(sim, cfg);
    expectSameRun(driveFabric(sim, net), cm5);
    EXPECT_EQ(net.offloadHits(), 0u);
    EXPECT_EQ(net.offloadMisses(), 0u);
}

TEST(FabricEquivalence, NicamWithNonMatchingEntriesIsCm5)
{
    Simulator sim;
    NicamNetwork::Config cfg;
    static_cast<Cm5Network::Config &>(cfg) = scrambledCm5Config();
    NicamNetwork net(sim, cfg);
    // Wrong tag on every node, and the right tag with a selector no
    // packet carries: every lookup misses to the host sink.
    auto never = [](const Packet &) { ADD_FAILURE() << "matched"; };
    for (NodeId d = 0; d < 8; ++d) {
        ASSERT_TRUE(net.offloadHandler(d, HwTag::UserAm, 0, never));
        ASSERT_TRUE(
            net.offloadHandler(d, HwTag::StreamData, 0xdeadbeefu, never));
    }
    expectSameRun(driveFabric(sim, net), cm5Run());
    EXPECT_EQ(net.offloadHits(), 0u);
    EXPECT_GT(net.offloadMisses(), 0u);
}

TEST(FabricEquivalence, RdmaIsCr)
{
    CrNetwork::Config cfg;
    cfg.nodes = 8;
    cfg.faults.dropRate = 0.05;
    cfg.faults.corruptRate = 0.05;
    cfg.faults.duplicateRate = 0.05;
    cfg.faults.seed = 4321;

    Simulator crSim;
    CrNetwork cr(crSim, cfg);
    const FabricRun crRun = driveFabric(crSim, cr);
    EXPECT_GT(crRun.stats.hwRetries, 0u);
    EXPECT_GT(crRun.stats.deliveryRetries, 0u);
    EXPECT_EQ(crRun.stats.delivered, 240u);

    Simulator rdmaSim;
    RdmaNetwork rdma(rdmaSim, cfg);
    expectSameRun(driveFabric(rdmaSim, rdma), crRun);
}

// ----------------------------------------------------------------
// Flow ids outside the fabric: inject() panics (never indexes out of
// bounds), gated or not, and leaves the fabric as it was; so does
// attaching a node outside it.
// ----------------------------------------------------------------

template <typename Net>
class BadFlowId : public ::testing::Test
{
};

using AllFabrics =
    ::testing::Types<Cm5Network, CrNetwork, RdmaNetwork, NicamNetwork>;
TYPED_TEST_SUITE(BadFlowId, AllFabrics);

struct ThrowOnError
{
    ThrowOnError() { log_detail::throwOnError = true; }
    ~ThrowOnError() { log_detail::throwOnError = false; }
};

/** A gate that keeps every captured packet. */
struct KeepGate : ScheduleGate
{
    std::vector<Packet> captured;
    void
    capture(Packet &&pkt) override
    {
        captured.push_back(std::move(pkt));
    }
};

TYPED_TEST(BadFlowId, InjectPanics)
{
    ThrowOnError guard;
    for (const bool gated : {false, true}) {
        Simulator sim;
        typename TypeParam::Config cfg;
        cfg.nodes = 4;
        TypeParam net(sim, cfg);
        KeepGate gate;
        if (gated)
            net.setScheduleGate(&gate);
        std::vector<Packet> got;
        for (NodeId d = 0; d < 4; ++d) {
            net.attach(d, [&](Packet &&p) {
                got.push_back(std::move(p));
                return true;
            });
        }

        std::vector<Packet> bad = {
            mkPacket(4, 1, 1),           mkPacket(0, 4, 2),
            mkPacket(invalidNode, 1, 3), mkPacket(0, invalidNode, 4),
            mkPacket(0, 1, 5),           mkPacket(0, 1, 6)};
        bad[4].vnet = Network::numVnets;
        bad[5].vnet = 255;
        for (const Packet &p : bad)
            EXPECT_THROW(net.inject(Packet(p)), log_detail::SimError)
                << "gated=" << gated << " src=" << p.src
                << " dst=" << p.dst << " vnet=" << int(p.vnet);
        EXPECT_EQ(net.stats().injected, 0u) << "gated=" << gated;
        EXPECT_TRUE(gate.captured.empty());
        EXPECT_THROW(net.attach(4, [](Packet &&) { return true; }),
                     log_detail::SimError);

        // The fabric is unharmed: a good packet still goes through,
        // first in the injection sequence.
        Packet good = mkPacket(3, 2, 7);
        good.vnet = Network::numVnets - 1;
        ASSERT_TRUE(net.inject(std::move(good)));
        sim.run();
        if (gated) {
            ASSERT_EQ(gate.captured.size(), 1u);
            EXPECT_EQ(gate.captured[0].injectSeq, 0u);
        } else {
            ASSERT_EQ(got.size(), 1u);
            EXPECT_EQ(got[0].injectSeq, 0u);
            EXPECT_EQ(got[0].header, 7u);
        }
    }
}

} // namespace
} // namespace msgsim
