/**
 * @file
 * Tests of the declarative traffic engine: pattern shapes, the
 * substrate x protocol grid (exactly-once delivery everywhere), the
 * compositional analytic predictor (predicted == measured, exactly),
 * seeded determinism, and the in-order / fault-tolerance machinery
 * firing exactly when the paper says it should.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "model/traffic_model.hh"
#include "traffic/engine.hh"
#include "traffic/traffic.hh"

namespace msgsim
{
namespace
{

/// Relative agreement the W1 gate uses: exact up to fp rounding.
bool
agrees(double predicted, double measured)
{
    const double diff = predicted > measured ? predicted - measured
                                             : measured - predicted;
    const double scale = std::max(
        1.0, std::max(std::abs(predicted), std::abs(measured)));
    return diff <= 1e-9 * scale;
}

TrafficSpec
smallSpec(TrafficPattern pattern, TrafficProto proto)
{
    TrafficSpec spec;
    spec.pattern = pattern;
    spec.proto = proto;
    spec.nodes = 8;
    spec.messagesPerNode = 4;
    spec.sizeWords = 5; // 3 fragments
    spec.seed = 7;
    return spec;
}

TEST(TrafficSpec, FragmentationRule)
{
    TrafficSpec spec;
    const std::pair<std::uint32_t, std::uint32_t> cases[] = {
        {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 4}, {9, 5}};
    for (const auto &[size, frags] : cases) {
        spec.sizeWords = size;
        EXPECT_EQ(spec.fragmentsPerMessage(), frags) << size;
    }
}

TEST(TrafficSpec, StringRoundTrips)
{
    for (const char *name : {"am", "seq", "acked"}) {
        TrafficProto p;
        ASSERT_TRUE(protoFromString(name, p)) << name;
        EXPECT_STREQ(toString(p), name);
    }
    TrafficProto p;
    EXPECT_FALSE(protoFromString("bogus", p));

    for (const char *name : {"cm5", "cr", "rdma", "nicam"}) {
        Substrate s;
        ASSERT_TRUE(parseSubstrate(name, s)) << name;
        EXPECT_STREQ(toString(s), name);
    }
    Substrate s;
    EXPECT_FALSE(parseSubstrate("myrinet", s));

    for (const char *name :
         {"uniform-random", "permutation", "hotspot", "ring",
          "transpose", "incast", "alltoall"}) {
        TrafficPattern pat;
        ASSERT_TRUE(patternFromString(name, pat)) << name;
        EXPECT_STREQ(toString(pat), name);
    }
    TrafficPattern pat;
    EXPECT_FALSE(patternFromString("bogus", pat));
}

TEST(TrafficGen, IncastConvergesOnNodeZero)
{
    TrafficGen gen(16, TrafficPattern::Incast, 1);
    for (NodeId i = 0; i < 16; ++i)
        EXPECT_EQ(gen.destFor(i), i == 0 ? 1u : 0u) << i;
}

TEST(TrafficGen, AllToAllRotatesThroughEveryPeer)
{
    const std::uint32_t n = 6;
    TrafficGen gen(n, TrafficPattern::AllToAll, 1);
    for (NodeId src = 0; src < n; ++src) {
        std::set<NodeId> seen;
        for (std::uint32_t k = 0; k < n - 1; ++k) {
            const NodeId d = gen.destFor(src);
            EXPECT_NE(d, src);
            seen.insert(d);
        }
        EXPECT_EQ(seen.size(), n - 1) << src; // every peer, once
    }
}

// --- the substrate x protocol grid ---------------------------------

class TrafficGrid : public ::testing::TestWithParam<Substrate>
{
};

TEST_P(TrafficGrid, ExactlyOnceOnEveryProtocol)
{
    for (TrafficProto proto :
         {TrafficProto::Am, TrafficProto::Seq, TrafficProto::Acked}) {
        const TrafficSpec spec =
            smallSpec(TrafficPattern::Permutation, proto);
        Stack stack(trafficStackConfig(spec, GetParam()));
        TrafficEngine engine(stack);
        const TrafficResult res = engine.run(spec);

        ASSERT_TRUE(res.ok) << toString(proto);
        const std::uint64_t frags =
            static_cast<std::uint64_t>(spec.nodes) *
            spec.messagesPerNode * spec.fragmentsPerMessage();
        EXPECT_EQ(res.shape.fragmentsSent, frags);
        EXPECT_EQ(res.shape.fragmentsDelivered, frags);
        if (proto == TrafficProto::Acked) {
            const std::uint64_t msgs =
                static_cast<std::uint64_t>(spec.nodes) *
                spec.messagesPerNode;
            EXPECT_EQ(res.shape.acksSent, msgs);
            EXPECT_EQ(res.shape.acksDelivered, msgs);
        } else {
            EXPECT_EQ(res.shape.acksSent, 0u);
        }
        EXPECT_EQ(res.perNodeInstr.count(), spec.nodes);
    }
}

TEST_P(TrafficGrid, PredictionMatchesMeasurementExactly)
{
    for (TrafficPattern pattern :
         {TrafficPattern::UniformRandom, TrafficPattern::Incast,
          TrafficPattern::AllToAll}) {
        for (TrafficProto proto : {TrafficProto::Am,
                                   TrafficProto::Seq,
                                   TrafficProto::Acked}) {
            TrafficSpec spec = smallSpec(pattern, proto);
            spec.maxJitter = 3; // scramble cm5/nicam arrivals
            Stack stack(trafficStackConfig(spec, GetParam()));
            TrafficEngine engine(stack);
            const TrafficResult res = engine.run(spec);
            ASSERT_TRUE(res.ok)
                << toString(pattern) << "/" << toString(proto);

            const TrafficPrediction pred =
                predictTraffic(res.shape);
            for (int f = 0; f < numPaperFeatures; ++f) {
                const CatCost &p = pred.feature[f];
                const CatCost &m = res.measured[f];
                EXPECT_TRUE(agrees(p.reg, m.reg))
                    << toString(pattern) << "/" << toString(proto)
                    << " feature " << f << " reg " << p.reg
                    << " != " << m.reg;
                EXPECT_TRUE(agrees(p.mem, m.mem))
                    << toString(pattern) << "/" << toString(proto)
                    << " feature " << f << " mem " << p.mem
                    << " != " << m.mem;
                EXPECT_TRUE(agrees(p.dev, m.dev))
                    << toString(pattern) << "/" << toString(proto)
                    << " feature " << f << " dev " << p.dev
                    << " != " << m.dev;
            }
            EXPECT_TRUE(agrees(pred.grandTotal(),
                               res.measuredGrandTotal()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Substrates, TrafficGrid,
                         ::testing::Values(Substrate::Cm5,
                                           Substrate::Cr,
                                           Substrate::Rdma,
                                           Substrate::Nicam));

// --- determinism and substrate-specific structure ------------------

TEST(TrafficEngine, SameSeedSameRun)
{
    auto runOnce = [] {
        TrafficSpec spec =
            smallSpec(TrafficPattern::UniformRandom,
                      TrafficProto::Acked);
        spec.maxJitter = 9;
        Stack stack(trafficStackConfig(spec, Substrate::Cm5));
        TrafficEngine engine(stack);
        return engine.run(spec);
    };
    const TrafficResult a = runOnce();
    const TrafficResult b = runOnce();
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.shape.polls, b.shape.polls);
    EXPECT_EQ(a.shape.ooo, b.shape.ooo);
    EXPECT_EQ(a.measuredGrandTotal(), b.measuredGrandTotal());
    EXPECT_EQ(a.maxOverMean, b.maxOverMean);
}

TEST(TrafficEngine, ReorderMachineryVanishesOnInOrderFabrics)
{
    // The paper's argument at traffic scale: the same seq workload
    // pays a reorder bill on the CM-5 fabric and none on cr/rdma.
    TrafficSpec spec =
        smallSpec(TrafficPattern::UniformRandom, TrafficProto::Seq);
    spec.nodes = 9;
    spec.maxJitter = 20;

    Stack cm5(trafficStackConfig(spec, Substrate::Cm5));
    TrafficEngine cm5Engine(cm5);
    const TrafficResult onCm5 = cm5Engine.run(spec);
    ASSERT_TRUE(onCm5.ok);
    EXPECT_GT(onCm5.shape.ooo, 0u);
    EXPECT_GT(onCm5.measured[static_cast<int>(
                                 Feature::InOrderDelivery)]
                  .total(),
              0.0);

    for (Substrate s : {Substrate::Cr, Substrate::Rdma}) {
        Stack stack(trafficStackConfig(spec, s));
        TrafficEngine engine(stack);
        const TrafficResult res = engine.run(spec);
        ASSERT_TRUE(res.ok) << toString(s);
        EXPECT_EQ(res.shape.ooo, 0u) << toString(s);
        EXPECT_EQ(res.hwRetries, 0u) << toString(s);
    }
}

TEST(TrafficEngine, AckedPaysFaultToleranceEvenFaultFree)
{
    const TrafficSpec spec =
        smallSpec(TrafficPattern::Ring, TrafficProto::Acked);
    Stack stack(trafficStackConfig(spec, Substrate::Rdma));
    TrafficEngine engine(stack);
    const TrafficResult res = engine.run(spec);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.hwRetries, 0u);
    EXPECT_GT(res.measured[static_cast<int>(
                               Feature::FaultTolerance)]
                  .total(),
              0.0);
    // am traffic on the same fabric pays nothing there.
    const TrafficSpec am =
        smallSpec(TrafficPattern::Ring, TrafficProto::Am);
    Stack stack2(trafficStackConfig(am, Substrate::Rdma));
    TrafficEngine engine2(stack2);
    const TrafficResult res2 = engine2.run(am);
    ASSERT_TRUE(res2.ok);
    EXPECT_EQ(res2.measured[static_cast<int>(
                                Feature::FaultTolerance)]
                  .total(),
              0.0);
}

TEST(TrafficEngine, RunIsRepeatableOnOneStack)
{
    // run() resets per-run state: back-to-back runs on one engine
    // must each deliver exactly once.
    TrafficSpec spec =
        smallSpec(TrafficPattern::AllToAll, TrafficProto::Seq);
    Stack stack(trafficStackConfig(spec, Substrate::Nicam));
    TrafficEngine engine(stack);
    for (int round = 0; round < 3; ++round) {
        const TrafficResult res = engine.run(spec);
        ASSERT_TRUE(res.ok) << round;
        EXPECT_EQ(res.shape.fragmentsDelivered,
                  res.shape.fragmentsSent)
            << round;
    }
}

// --- the collective predictor --------------------------------------

TEST(TrafficModel, ExpectedCollMessages)
{
    EXPECT_EQ(expectedCollMessages("tree", 8), 14u);
    EXPECT_EQ(expectedCollMessages("ring", 8), 14u);
    EXPECT_EQ(expectedCollMessages("rd", 8), 24u);
    EXPECT_EQ(expectedCollMessages("barrier", 8), 24u);
    EXPECT_EQ(expectedCollMessages("tree", 9), 16u);
    EXPECT_EQ(expectedCollMessages("barrier", 9), 36u);
}

} // namespace
} // namespace msgsim
