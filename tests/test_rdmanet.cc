/**
 * @file
 * Tests of the RDMA/verbs substrate (src/rdmanet): per-QP in-order
 * reliable delivery in the fabric, RNR and CQ-overflow backpressure,
 * the MR registration cache, the shape shift of the instruction bill
 * (1994 overheads zero, completion-poll and registration nonzero),
 * and the design rule that observability never changes counts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "packet_match.hh"
#include "prof/profile.hh"
#include "rdmanet/rdma_network.hh"
#include "rdmanet/rdma_stack.hh"
#include "sim/event.hh"

namespace msgsim
{
namespace
{

// ----------------------------------------------------------------
// Fabric guarantees.
// ----------------------------------------------------------------

TEST(RdmaNetwork, DeliversInOrderPerFlow)
{
    Simulator sim;
    RdmaNetwork::Config cfg;
    cfg.nodes = 4;
    RdmaNetwork net(sim, cfg);

    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 32; ++i)
        EXPECT_TRUE(net.inject(
            Packet(0, 1, HwTag::XferData, i, {i, i, i, i})));
    sim.run();
    ASSERT_EQ(got.size(), 32u);
    for (Word i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], i);
    const auto f = net.features();
    EXPECT_TRUE(f.inOrderDelivery);
    EXPECT_TRUE(f.reliableDelivery);
    EXPECT_TRUE(f.acceptanceIndependent);
    EXPECT_TRUE(f.zeroCopy);
    EXPECT_TRUE(f.completionQueue);
    EXPECT_FALSE(f.offloadDispatch);
}

TEST(RdmaNetwork, LinkFaultsAreAbsorbedByHardwareRetry)
{
    Simulator sim;
    RdmaNetwork::Config cfg;
    cfg.nodes = 2;
    cfg.faults.dropRate = 0.3;
    cfg.faults.corruptRate = 0.2;
    cfg.faults.seed = 11;
    RdmaNetwork net(sim, cfg);

    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        EXPECT_TRUE(p.checksumOk());
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 64; ++i)
        net.inject(Packet(0, 1, HwTag::XferData, i, {i, 0, 0, 0}));
    sim.run();
    // Every packet arrives intact, exactly once, in order — the
    // faults only cost link-level retransmissions.
    ASSERT_EQ(got.size(), 64u);
    for (Word i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], i);
    EXPECT_GT(net.stats().hwRetries, 0u);
    EXPECT_EQ(net.stats().dropped, 0u);
    EXPECT_EQ(net.stats().corrupted, 0u);
}

TEST(RdmaNetwork, StalledFlowHoldsYoungerPackets)
{
    Simulator sim;
    RdmaNetwork::Config cfg;
    cfg.nodes = 2;
    RdmaNetwork net(sim, cfg);

    int refusals = 2;
    std::vector<Word> got;
    net.attach(1, [&](Packet &&p) {
        if (refusals > 0) {
            --refusals;
            return false; // receiver not ready: fabric must retry
        }
        got.push_back(p.header);
        return true;
    });
    for (Word i = 0; i < 8; ++i)
        net.inject(Packet(0, 1, HwTag::XferData, i, {i, 0, 0, 0}));
    sim.run();
    ASSERT_EQ(got.size(), 8u);
    for (Word i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], i); // order survived the stall
    EXPECT_GT(net.stats().deliveryRetries, 0u);
}

// ----------------------------------------------------------------
// The verbs host interface.
// ----------------------------------------------------------------

TEST(RdmaNic, SingleMessageLandsZeroCopy)
{
    RdmaStackConfig cfg;
    RdmaStack stack(cfg);
    RdmaRunParams p;
    const RunResult res = runRdmaSingle(stack, p);
    ASSERT_TRUE(res.dataOk);
    // The 1994 overheads are hardware's problem now...
    EXPECT_EQ(res.counts.featureTotal(Feature::BufferMgmt), 0u);
    EXPECT_EQ(res.counts.featureTotal(Feature::InOrderDelivery), 0u);
    EXPECT_EQ(res.counts.featureTotal(Feature::FaultTolerance), 0u);
    // ...but the modern columns are real work.
    EXPECT_GT(res.counts.featureTotal(Feature::CompletionPoll), 0u);
    EXPECT_GT(res.counts.featureTotal(Feature::Registration), 0u);
    EXPECT_GT(res.counts.featureTotal(Feature::BaseCost), 0u);
}

TEST(RdmaNic, AllFourProtocolsRunEventAndSettledMode)
{
    for (const bool eventMode : {false, true}) {
        RdmaStackConfig cfg;
        RdmaStack stack(cfg);
        RdmaRunParams p;
        p.eventMode = eventMode;
        EXPECT_TRUE(runRdmaSingle(stack, p).dataOk);
        EXPECT_TRUE(runRdmaAm4(stack, p).dataOk);
        EXPECT_TRUE(runRdmaFinite(stack, p).dataOk);
        EXPECT_TRUE(runRdmaStream(stack, p).dataOk);
    }
}

TEST(RdmaNic, MrCacheHitsAndMissesAreAccounted)
{
    RdmaStackConfig cfg;
    cfg.mrCacheSlots = 2;
    RdmaStack stack(cfg);
    RdmaNic &nic = stack.nic(0);
    Node &nd = stack.node(0);
    const Addr a = nd.mem().alloc(16);
    const Addr b = nd.mem().alloc(16);
    const Addr c = nd.mem().alloc(16);

    EXPECT_FALSE(nic.regMr(a, 16)); // cold: miss
    EXPECT_TRUE(nic.regMr(a, 16));  // cached: hit
    EXPECT_FALSE(nic.regMr(b, 16));
    EXPECT_FALSE(nic.regMr(c, 16)); // evicts a (FIFO, 2 slots)
    EXPECT_FALSE(nic.regMr(a, 16)); // translation re-fetched
    EXPECT_EQ(nic.mrCacheHits(), 1u);
    EXPECT_EQ(nic.mrCacheMisses(), 4u);
}

TEST(RdmaNic, RegistrationMissCostsMoreThanHit)
{
    RdmaStackConfig cfg;
    RdmaStack stack(cfg);
    RdmaNic &nic = stack.nic(0);
    Node &nd = stack.node(0);
    const Addr buf = nd.mem().alloc(1024);

    InstrCounter before = nd.acct().counter();
    nic.regMr(buf, 1024);
    const auto missCost = nd.acct()
                              .counter()
                              .diff(before)
                              .featureTotal(Feature::Registration);
    before = nd.acct().counter();
    nic.regMr(buf, 1024);
    const auto hitCost = nd.acct()
                             .counter()
                             .diff(before)
                             .featureTotal(Feature::Registration);
    EXPECT_GT(missCost, 4 * hitCost); // pinning + per-page translation
    EXPECT_GT(hitCost, 0u);           // the probe itself is not free
}

TEST(RdmaNic, RnrWithoutPostedRecvThenRecovers)
{
    RdmaStackConfig cfg;
    RdmaStack stack(cfg);
    const Word qp = stack.connectQp(0, 1);
    Node &src = stack.node(0);
    Node &dst = stack.node(1);
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const Addr sbuf = src.mem().alloc(n);
    const Addr dbuf = dst.mem().alloc(n);
    for (std::uint32_t i = 0; i < n; ++i)
        src.mem().write(sbuf + i, 0x5a00u + i);

    int recvDone = 0;
    stack.nic(1).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });

    stack.nic(0).regMr(sbuf, n);
    ASSERT_TRUE(stack.nic(0).postSend(qp, sbuf, n, 1));
    // No receive is posted: the NIC NAKs, the fabric retries.
    stack.sim().runUntil(
        [&] { return stack.nic(1).rnrNoRecv() > 0; }, 50'000'000);
    EXPECT_GT(stack.nic(1).rnrNoRecv(), 0u);
    EXPECT_EQ(recvDone, 0);

    stack.nic(1).regMr(dbuf, n);
    stack.nic(1).postRecv(qp, dbuf, n, 7);
    stack.settle();
    stack.nic(1).pollCq();
    EXPECT_EQ(recvDone, 1);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(dst.mem().read(dbuf + i), 0x5a00u + i);
}

TEST(RdmaNic, CqOverflowBackpressuresInsteadOfDropping)
{
    RdmaStackConfig cfg;
    cfg.cqCapacity = 2;
    RdmaStack stack(cfg);
    RdmaRunParams p;
    p.words = 32; // 8 messages of 4 words against a 2-slot CQ
    p.eventMode = true;
    const RunResult res = runRdmaStream(stack, p);
    ASSERT_TRUE(res.dataOk);
    // The sender hit the full send CQ and had to harvest first.
    EXPECT_GT(stack.nic(0).sendStalls(), 0u);
    // Nothing was lost to the pressure.
    EXPECT_EQ(stack.net().stats().dropped, 0u);
}

TEST(RdmaNic, ReceiverCqOverflowStallsTheFabric)
{
    RdmaStackConfig cfg;
    cfg.cqCapacity = 2; // the smallest legal CQ
    RdmaStack stack(cfg);
    const Word qp = stack.connectQp(0, 1);
    Node &src = stack.node(0);
    Node &dst = stack.node(1);
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    const std::uint32_t messages = 4;
    const Addr sbuf = src.mem().alloc(messages * n);
    const Addr dbuf = dst.mem().alloc(messages * n);
    for (std::uint32_t i = 0; i < messages * n; ++i)
        src.mem().write(sbuf + i, 0xfeed00u + i);

    int recvDone = 0;
    stack.nic(1).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });

    stack.nic(1).regMr(dbuf, messages * n);
    for (std::uint32_t m = 0; m < messages; ++m)
        stack.nic(1).postRecv(qp, dbuf + m * n, n, m);
    stack.nic(0).regMr(sbuf, messages * n);
    for (std::uint32_t m = 0; m < messages; ++m) {
        while (!stack.nic(0).postSend(qp, sbuf + m * n, n, m))
            stack.nic(0).pollCq(); // tiny send CQ: harvest first
    }

    // With a 2-slot CQ and no polling, the third completion cannot
    // land: the NIC refuses the fragment and the fabric holds it.
    stack.sim().runUntil(
        [&] { return stack.nic(1).cqOverflowStalls() > 0; },
        50'000'000);
    EXPECT_GT(stack.nic(1).cqOverflowStalls(), 0u);

    // Poll-as-you-go drains the backlog without loss.
    while (recvDone < static_cast<int>(messages)) {
        stack.sim().runUntil(
            [&] { return stack.nic(1).cqDepth() > 0; }, 50'000'000);
        if (stack.nic(1).pollCq() == 0)
            break; // would time out; fail below
    }
    stack.settle();
    EXPECT_EQ(recvDone, static_cast<int>(messages));
    for (std::uint32_t i = 0; i < messages * n; ++i)
        EXPECT_EQ(dst.mem().read(dbuf + i), 0xfeed00u + i);
}

TEST(RdmaNic, StreamLongerThanTheCqCompletes)
{
    // 256 single-fragment messages against the default 64-entry CQ:
    // the receiver must harvest between rounds, in both modes.
    for (const bool eventMode : {false, true}) {
        RdmaStackConfig cfg;
        ASSERT_EQ(cfg.cqCapacity, 64u);
        RdmaStack stack(cfg);
        RdmaRunParams p;
        p.words = 1024;
        p.eventMode = eventMode;
        const RunResult res = runRdmaStream(stack, p);
        EXPECT_TRUE(res.dataOk) << "eventMode=" << eventMode;
        EXPECT_EQ(res.packets, 256u);
        EXPECT_EQ(stack.net().stats().dropped, 0u);
    }
}

// ----------------------------------------------------------------
// Sink refusal contract: a refused fragment is left untouched, so
// the fabric can offer the very same packet again.
// ----------------------------------------------------------------

Packet
fragment(Word qp, Word total, std::vector<Word> words)
{
    Packet p(0, 1, HwTag::XferData, hdr::pack(qp, total),
             std::move(words));
    p.injectSeq = 17;
    p.seal();
    return p;
}

TEST(RdmaNic, RnrRefusalLeavesPacketIntact)
{
    RdmaStack stack(RdmaStackConfig{});
    const Word qp = stack.connectQp(0, 1);
    RdmaNic &nic = stack.nic(1);

    Packet p = fragment(qp, 4, {1, 2, 3, 4});
    const Packet before = p;
    EXPECT_FALSE(nic.nicDeliver(std::move(p))); // no receive posted
    EXPECT_TRUE(samePacket(p, before));
    EXPECT_EQ(nic.rnrNoRecv(), 1u);

    // Once a receive is posted, the same packet lands.
    const Addr buf = stack.node(1).mem().alloc(4);
    nic.regMr(buf, 4);
    nic.postRecv(qp, buf, 4, 0);
    EXPECT_TRUE(nic.nicDeliver(std::move(p)));
    EXPECT_EQ(stack.node(1).mem().read(buf + 3), 4u);
}

TEST(RdmaNic, CqFullRefusalLeavesPacketIntact)
{
    RdmaStackConfig cfg;
    cfg.cqCapacity = 2;
    RdmaStack stack(cfg);
    const Word qp = stack.connectQp(0, 1);
    RdmaNic &nic = stack.nic(1);
    const Addr buf = stack.node(1).mem().alloc(12);
    nic.regMr(buf, 12);
    for (Word m = 0; m < 3; ++m)
        nic.postRecv(qp, buf + m * 4, 4, m);
    for (Word m = 0; m < 2; ++m)
        ASSERT_TRUE(nic.nicDeliver(fragment(qp, 4, {m, m, m, m})));
    ASSERT_EQ(nic.cqDepth(), 2u);

    Packet p = fragment(qp, 4, {7, 8, 9, 10});
    const Packet before = p;
    EXPECT_FALSE(nic.nicDeliver(std::move(p))); // CQ full
    EXPECT_TRUE(samePacket(p, before));
    EXPECT_EQ(nic.cqOverflowStalls(), 1u);

    // Harvesting reopens the CQ; the same packet then lands.
    EXPECT_EQ(nic.pollCq(), 2);
    EXPECT_TRUE(nic.nicDeliver(std::move(p)));
    EXPECT_EQ(stack.node(1).mem().read(buf + 8), 7u);
}

// ----------------------------------------------------------------
// Observability must not change what is counted.
// ----------------------------------------------------------------

TEST(RdmaNic, CountsAreBitIdenticalWithTracingOnOrOff)
{
    for (const char *proto : {"single", "am4", "xfer", "stream"}) {
        prof::ProfConfig on;
        on.protocol = proto;
        on.substrate = Substrate::Rdma;
        prof::ProfConfig off = on;
        off.observe = false;
        const auto a = prof::runProfiled(on);
        const auto b = prof::runProfiled(off);
        ASSERT_TRUE(a.result.dataOk) << proto;
        EXPECT_EQ(a.result.counts.paperTotal(),
                  b.result.counts.paperTotal())
            << proto;
        for (int fi = 0; fi < numFeatures; ++fi) {
            const auto f = static_cast<Feature>(fi);
            EXPECT_EQ(a.result.counts.featureTotal(f),
                      b.result.counts.featureTotal(f))
                << proto << "/" << toString(f);
        }
    }
}

} // namespace
} // namespace msgsim
