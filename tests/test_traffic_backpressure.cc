/**
 * @file
 * Traffic runs on bounded receive FIFOs.
 *
 * A full FIFO refuses deliveries until its node polls.  TrafficEngine
 * and TrafficRunner poll between settles, so a settle must hand
 * control back once the fabric starts refusing; otherwise the fabric
 * retries into the full FIFO forever and the run never returns.  This
 * file's tests carry a ctest TIMEOUT so such a livelock fails instead
 * of hanging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "model/traffic_model.hh"
#include "traffic/engine.hh"
#include "traffic/traffic.hh"

namespace msgsim
{
namespace
{

bool
agrees(double predicted, double measured)
{
    const double scale = std::max(
        1.0, std::max(std::abs(predicted), std::abs(measured)));
    return std::abs(predicted - measured) <= 1e-9 * scale;
}

class BoundedRecv : public ::testing::TestWithParam<Substrate>
{
};

TEST_P(BoundedRecv, IncastAckedCompletes)
{
    // 15 senders converge on node 0, whose receive FIFOs hold 4
    // packets per virtual network.
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Incast;
    spec.proto = TrafficProto::Acked;
    spec.nodes = 16;
    spec.messagesPerNode = 16;
    spec.sizeWords = 8; // 4 fragments per message
    StackConfig cfg = trafficStackConfig(spec, GetParam());
    cfg.recvCapacity = 4;
    Stack stack(cfg);
    TrafficEngine engine(stack);

    const TrafficResult res = engine.run(spec);
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.deliveryRetries, 0u) << "the FIFO bound never bit";

    const std::uint64_t messages =
        std::uint64_t{spec.nodes} * spec.messagesPerNode;
    EXPECT_EQ(res.shape.fragmentsSent,
              messages * spec.fragmentsPerMessage());
    EXPECT_EQ(res.shape.fragmentsDelivered, res.shape.fragmentsSent);
    EXPECT_EQ(res.shape.acksSent, messages);
    EXPECT_EQ(res.shape.acksDelivered, res.shape.acksSent);
    EXPECT_EQ(engine.fragmentsConsumed(), res.shape.fragmentsSent);

    // Refused deliveries are hardware work: the W1 predictor still
    // reproduces the measured bill exactly.
    const TrafficPrediction pred = predictTraffic(res.shape);
    for (int f = 0; f < numPaperFeatures; ++f) {
        const CatCost &p = pred.feature[f];
        const CatCost &m = res.measured[f];
        EXPECT_TRUE(agrees(p.reg, m.reg))
            << "feature " << f << " reg " << p.reg << " != " << m.reg;
        EXPECT_TRUE(agrees(p.mem, m.mem))
            << "feature " << f << " mem " << p.mem << " != " << m.mem;
        EXPECT_TRUE(agrees(p.dev, m.dev))
            << "feature " << f << " dev " << p.dev << " != " << m.dev;
    }
}

TEST_P(BoundedRecv, RunnerIncastDeliversEverything)
{
    // The plain TrafficRunner drains the same way: 15 senders into a
    // 4-packet FIFO at node 0.
    StackConfig cfg;
    cfg.substrate = GetParam();
    cfg.nodes = 16;
    cfg.recvCapacity = 4;
    Stack stack(cfg);
    TrafficRunner runner(stack);
    TrafficGen gen(cfg.nodes, TrafficPattern::Incast, 1);
    const TrafficRunner::Result res = runner.run(gen, 16);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.messages, 16u * 16u);
    EXPECT_EQ(res.delivered, res.messages);
    EXPECT_GT(stack.network().stats().deliveryRetries, 0u)
        << "the FIFO bound never bit";
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, BoundedRecv,
    ::testing::Values(Substrate::Cm5, Substrate::Rdma),
    [](const auto &info) { return std::string(toString(info.param)); });

} // namespace
} // namespace msgsim
