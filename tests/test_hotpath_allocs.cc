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
#include "sim/event.hh"

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

std::unique_ptr<Rig>
makeRig(Fabric f, std::uint32_t words, OrderPolicyFactory order = nullptr,
        const FaultInjector::Config &faults = {})
{
    auto rig = std::make_unique<Rig>();
    rig->words = words;
    switch (f) {
      case Fabric::Cm5: {
        Cm5Network::Config cfg;
        cfg.orderFactory = std::move(order);
        cfg.faults = faults;
        rig->net = std::make_unique<Cm5Network>(rig->sim, cfg);
        break;
      }
      case Fabric::Cr: {
        CrNetwork::Config cfg;
        cfg.faults = faults;
        rig->net = std::make_unique<CrNetwork>(rig->sim, cfg);
        break;
      }
      case Fabric::Rdma: {
        RdmaNetwork::Config cfg;
        cfg.faults = faults;
        rig->net = std::make_unique<RdmaNetwork>(rig->sim, cfg);
        break;
      }
      case Fabric::Nicam: {
        NicamNetwork::Config cfg;
        cfg.orderFactory = std::move(order);
        cfg.faults = faults;
        rig->net = std::make_unique<NicamNetwork>(rig->sim, cfg);
        break;
      }
    }
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

} // namespace
} // namespace msgsim
