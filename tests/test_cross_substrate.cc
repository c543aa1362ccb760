/**
 * @file
 * Layering orthogonality: the CMAM software protocols are substrate
 * -agnostic — run them unchanged on the CR network.  The software
 * still pays its full overhead (it cannot know the hardware already
 * guarantees order and reliability), which is precisely the paper's
 * argument for REDESIGNING the messaging layer (§4) rather than just
 * swapping the network: the savings come from removing software, not
 * from better wires.
 */

#include <gtest/gtest.h>

#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"

namespace msgsim
{
namespace
{

StackConfig
crConfig()
{
    StackConfig cfg;
    cfg.substrate = Substrate::Cr;
    cfg.nodes = 4;
    return cfg;
}

TEST(CrossSubstrate, CmamFiniteOnCrCostsTheSame)
{
    Stack cr(crConfig());
    FiniteXfer proto(cr);
    FiniteXferParams p;
    p.words = 1024;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    // Identical software, identical bill: 6221 / 5516, even though
    // the hardware underneath would have made most of it redundant.
    EXPECT_EQ(res.counts.src.paperTotal(), 6221u);
    EXPECT_EQ(res.counts.dst.paperTotal(), 5516u);
}

TEST(CrossSubstrate, CmamStreamOnCrPaysSequencingForNothing)
{
    Stack cr(crConfig());
    StreamProtocol proto(cr);
    StreamParams p;
    p.words = 256;
    const auto res = proto.run(p);
    ASSERT_TRUE(res.dataOk);
    // In-order hardware means zero out-of-order arrivals...
    EXPECT_EQ(res.oooArrivals, 0u);
    // ...yet the protocol still pays sequence numbers, source
    // buffering, and per-packet acks: f = 0 stream totals.
    const std::uint64_t packets = 64;
    EXPECT_EQ(res.counts.src.paperTotal(), 54u * packets);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::InOrderDelivery),
              6u * packets);
    EXPECT_EQ(res.counts.dst.featureTotal(Feature::FaultTolerance),
              20u * packets);
}

TEST(CrossSubstrate, CmamStreamOnCrUnderHeavyFaults)
{
    // Hardware fault tolerance underneath software fault tolerance:
    // belt and suspenders, zero software retransmissions needed.
    StackConfig cfg = crConfig();
    cfg.faults.dropRate = 0.25;
    cfg.faults.corruptRate = 0.1;
    cfg.faults.seed = 12;
    Stack cr(cfg);
    StreamProtocol proto(cr);
    StreamParams p;
    p.words = 512;
    p.eventMode = true;
    const auto res = proto.run(p);
    EXPECT_TRUE(res.dataOk);
    EXPECT_EQ(res.retransmissions, 0u);
    EXPECT_GT(cr.network().stats().hwRetries, 0u);
}

TEST(CrossSubstrate, SavingsComeFromRemovingSoftware)
{
    // The whole point: CMAM-on-CR ≈ CMAM-on-CM5 in software cost;
    // only the §4 redesigned layer banks the hardware services.
    StackConfig cm5;
    cm5.nodes = 2;
    cm5.order = swapAdjacentFactory();
    Stack a(cm5);
    StreamProtocol pa(a);
    StreamParams params;
    params.words = 1024;
    const auto on_cm5 = pa.run(params);

    Stack b(crConfig());
    StreamProtocol pb(b);
    const auto on_cr = pb.run(params);

    ASSERT_TRUE(on_cm5.dataOk);
    ASSERT_TRUE(on_cr.dataOk);
    const double ratio =
        static_cast<double>(on_cr.counts.paperTotal()) /
        static_cast<double>(on_cm5.counts.paperTotal());
    // Only the OOO-buffering term disappears (arrivals are ordered);
    // everything else — 80%+ of the bill — survives the better wires.
    EXPECT_GT(ratio, 0.80);
    EXPECT_LT(ratio, 1.0);
}

TEST(CrossSubstrate, SubstrateNamesRoundTrip)
{
    for (Substrate s : {Substrate::Cm5, Substrate::Cr, Substrate::Rdma,
                        Substrate::Nicam}) {
        Substrate back = s == Substrate::Cm5 ? Substrate::Cr
                                              : Substrate::Cm5;
        ASSERT_TRUE(parseSubstrate(toString(s), back)) << toString(s);
        EXPECT_EQ(back, s);
    }
    // Only the exact lower-case names parse; a rejected name leaves
    // the output untouched.
    for (const char *bad : {"", "CM5", "cm5 ", "hl"}) {
        Substrate out = Substrate::Rdma;
        EXPECT_FALSE(parseSubstrate(bad, out)) << '"' << bad << '"';
        EXPECT_EQ(out, Substrate::Rdma);
    }
}

} // namespace
} // namespace msgsim
