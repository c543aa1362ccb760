/**
 * @file
 * Unit tests of the network common layer: packet format and CRC,
 * header packing, fat-tree topology, fault injection, and
 * delivery-order policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "net/fault.hh"
#include "net/order.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "packet_match.hh"
#include "sim/rng.hh"

namespace msgsim
{
namespace
{

TEST(Packet, CrcDetectsCorruption)
{
    Packet p(0, 1, HwTag::UserAm, 0x1234, {1, 2, 3, 4});
    p.seal();
    EXPECT_TRUE(p.checksumOk());
    p.data[2] ^= 0x100;
    EXPECT_FALSE(p.checksumOk());
    p.data[2] ^= 0x100;
    EXPECT_TRUE(p.checksumOk());
    p.header ^= 1;
    EXPECT_FALSE(p.checksumOk());
}

TEST(Packet, CrcDetectsEverySingleBitFlip)
{
    // Each hash step is a bijection of the word for a fixed running
    // state, so every error confined to one word is detected: all
    // 32 x (1 + 128) single-bit flips of a full-size packet.
    std::uint64_t state = 0x5eed;
    std::vector<Word> words(128);
    for (Word &w : words)
        w = static_cast<Word>(splitMix64(state));
    Packet p(2, 3, HwTag::XferData, 0xdeadbeefu, words);
    p.seal();
    ASSERT_TRUE(p.checksumOk());

    int flips = 0;
    int missed = 0;
    auto flipEachBit = [&](Word &w) {
        for (int bit = 0; bit < 32; ++bit) {
            w ^= 0x1u << bit;
            ++flips;
            missed += p.checksumOk() ? 1 : 0;
            w ^= 0x1u << bit;
        }
    };
    flipEachBit(p.header);
    for (Word &w : p.data)
        flipEachBit(w);
    EXPECT_EQ(flips, 4128);
    EXPECT_EQ(missed, 0);
    EXPECT_TRUE(p.checksumOk());
}

TEST(Packet, CorruptedFlagFailsChecksum)
{
    Packet p(0, 1, HwTag::UserAm, 7, {9, 9});
    p.seal();
    p.corrupted = true;
    EXPECT_FALSE(p.checksumOk());
}

TEST(Packet, SizeIsHeaderPlusData)
{
    Packet p(0, 1, HwTag::XferData, 0, {1, 2, 3, 4});
    EXPECT_EQ(p.sizeWords(), 5u); // the CM-5's five-word packet
}

TEST(HeaderPacking, RoundTrips)
{
    const Word h = hdr::pack(0xab, 0x123456);
    EXPECT_EQ(hdr::fieldA(h), 0xabu);
    EXPECT_EQ(hdr::fieldB(h), 0x123456u);
    EXPECT_EQ(hdr::pack(hdr::maxFieldA, hdr::maxFieldB), 0xffffffffu);
}

TEST(FatTree, SingleSwitchCluster)
{
    FatTree t(4, 4);
    EXPECT_EQ(t.levels(), 1u);
    EXPECT_EQ(t.lca(0, 0), 0u);
    EXPECT_EQ(t.lca(0, 3), 1u);
    EXPECT_EQ(t.hops(0, 3), 2u);
    EXPECT_EQ(t.pathCount(0, 3), 1u);
}

TEST(FatTree, TwoLevels)
{
    FatTree t(16, 4);
    EXPECT_EQ(t.levels(), 2u);
    EXPECT_EQ(t.lca(0, 1), 1u);   // same leaf switch
    EXPECT_EQ(t.lca(0, 4), 2u);   // across leaf switches
    EXPECT_EQ(t.hops(0, 4), 4u);
    EXPECT_EQ(t.pathCount(0, 4), 4u); // 4 root choices
    EXPECT_EQ(t.pathCount(0, 1), 1u);
}

TEST(FatTree, ThreeLevels)
{
    FatTree t(64, 4);
    EXPECT_EQ(t.levels(), 3u);
    EXPECT_EQ(t.lca(0, 63), 3u);
    EXPECT_EQ(t.hops(0, 63), 6u);
    EXPECT_EQ(t.pathCount(0, 63), 16u);
}

TEST(FatTree, NonPowerNodeCounts)
{
    FatTree t(10, 2);
    EXPECT_EQ(t.levels(), 4u); // 2^4 = 16 >= 10
    EXPECT_EQ(t.lca(0, 9), 4u);
}

TEST(FaultInjector, CleanByDefault)
{
    FaultInjector fi;
    Packet p(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4});
    p.seal();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fi.apply(p), FaultAction::None);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);
}

TEST(FaultInjector, RatesRoughlyCalibrated)
{
    FaultInjector::Config cfg;
    cfg.dropRate = 0.1;
    cfg.corruptRate = 0.05;
    FaultInjector fi(cfg);
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
        p.injectSeq = static_cast<std::uint64_t>(i);
        p.seal();
        fi.apply(p);
    }
    EXPECT_NEAR(static_cast<double>(fi.drops()) / trials, 0.10, 0.01);
    EXPECT_NEAR(static_cast<double>(fi.corruptions()) / trials, 0.045,
                0.012);
}

TEST(FaultInjector, ScriptedFaultsFireOnce)
{
    FaultInjector fi;
    fi.scriptDrop(5);
    fi.scriptCorrupt(7);
    for (std::uint64_t i = 0; i < 10; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4});
        p.injectSeq = i;
        p.seal();
        const auto action = fi.apply(p);
        if (i == 5) {
            EXPECT_EQ(action, FaultAction::Drop);
        } else if (i == 7) {
            EXPECT_EQ(action, FaultAction::Corrupt);
            EXPECT_FALSE(p.checksumOk());
        } else {
            EXPECT_EQ(action, FaultAction::None);
        }
    }
    // Scripts are one-shot.
    Packet q(0, 1, HwTag::UserAm, 0, {1});
    q.injectSeq = 5;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::None);
}

TEST(FaultInjector, ScriptedDuplicateFiresOnceAndLeavesPacketIntact)
{
    FaultInjector fi;
    fi.scriptDuplicate(3);
    for (std::uint64_t i = 0; i < 6; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {9, 8, 7, 6});
        p.injectSeq = i;
        p.seal();
        const auto action = fi.apply(p);
        if (i == 3) {
            EXPECT_EQ(action, FaultAction::Duplicate);
            // The duplicate is a ghost copy, not a corruption: the
            // original payload must still checksum clean.
            EXPECT_TRUE(p.checksumOk());
        } else {
            EXPECT_EQ(action, FaultAction::None);
        }
    }
    EXPECT_EQ(fi.duplications(), 1u);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);

    // One-shot, like the other scripts.
    Packet q(0, 1, HwTag::UserAm, 0, {1});
    q.injectSeq = 3;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::None);
}

TEST(FaultInjector, DuplicateRateRoughlyCalibrated)
{
    FaultInjector::Config cfg;
    cfg.duplicateRate = 0.08;
    FaultInjector fi(cfg);
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
        p.injectSeq = static_cast<std::uint64_t>(i);
        p.seal();
        fi.apply(p);
    }
    EXPECT_NEAR(static_cast<double>(fi.duplications()) / trials, 0.08,
                0.01);
    EXPECT_EQ(fi.drops(), 0u);
    EXPECT_EQ(fi.corruptions(), 0u);
}

/** Rates and overlapping scripts: every verdict kind, both sources. */
FaultInjector
mixedInjector()
{
    FaultInjector::Config cfg;
    cfg.dropRate = 0.1;
    cfg.corruptRate = 0.1;
    cfg.duplicateRate = 0.1;
    cfg.seed = 77;
    FaultInjector fi(cfg);
    fi.scriptDrop(3);
    fi.scriptCorrupt(5);
    fi.scriptDuplicate(8);
    fi.scriptCorrupt(13);
    fi.scriptDrop(13);
    return fi;
}

TEST(FaultInjector, DecideMatchesApply)
{
    FaultInjector deciding = mixedInjector();
    FaultInjector applying = mixedInjector();
    for (std::uint64_t i = 0; i < 4000; ++i) {
        Packet p(0, 1, HwTag::UserAm, 0, {1, 2, 3, 4});
        p.injectSeq = i;
        p.seal();
        Packet q = p;
        ASSERT_EQ(deciding.decide(p), applying.apply(q)) << "seq " << i;
    }
    EXPECT_EQ(deciding.drops(), applying.drops());
    EXPECT_EQ(deciding.corruptions(), applying.corruptions());
    EXPECT_EQ(deciding.duplications(), applying.duplications());
    EXPECT_GT(deciding.drops(), 0u);
    EXPECT_GT(deciding.corruptions(), 0u);
    EXPECT_GT(deciding.duplications(), 0u);
}

TEST(FaultInjector, DecideNeverModifiesThePacket)
{
    FaultInjector::Config cfg;
    cfg.corruptRate = 1.0; // every verdict is a corruption
    FaultInjector fi(cfg);
    fi.scriptCorrupt(0);
    fi.scriptDrop(1);
    fi.scriptDuplicate(2);
    for (const auto &data :
         {std::vector<Word>{}, std::vector<Word>{7, 8, 9, 10}}) {
        for (std::uint64_t seq = 0; seq < 4; ++seq) {
            Packet p(0, 1, HwTag::Control, 0x55, data);
            p.injectSeq = seq;
            p.lineage = 9;
            p.seal();
            const Packet before = p;
            EXPECT_NE(fi.decide(p), FaultAction::None);
            EXPECT_TRUE(samePacket(p, before));
            EXPECT_TRUE(p.checksumOk());
        }
        // The same verdict through apply() does corrupt in place.
        Packet p(0, 1, HwTag::Control, 0x55, data);
        p.seal();
        const Packet before = p;
        EXPECT_EQ(fi.apply(p), FaultAction::Corrupt);
        EXPECT_FALSE(samePacket(p, before));
        EXPECT_FALSE(p.checksumOk());
    }
}

TEST(FaultInjector, DropScriptOutranksDuplicateScript)
{
    // Precedence on the same packet: scripted drop wins; the
    // duplicate script is NOT consumed and fires on a later packet.
    FaultInjector fi;
    fi.scriptDrop(2);
    fi.scriptDuplicate(2);
    Packet p(0, 1, HwTag::UserAm, 0, {1, 2});
    p.injectSeq = 2;
    p.seal();
    EXPECT_EQ(fi.apply(p), FaultAction::Drop);
    EXPECT_EQ(fi.duplications(), 0u);

    Packet q(0, 1, HwTag::UserAm, 0, {1, 2});
    q.injectSeq = 2;
    q.seal();
    EXPECT_EQ(fi.apply(q), FaultAction::Duplicate);
}

// --- Order policies -----------------------------------------------

std::vector<Packet>
makeFlow(std::uint64_t count)
{
    std::vector<Packet> flow;
    for (std::uint64_t i = 0; i < count; ++i) {
        Packet p(0, 1, HwTag::StreamData, 0, {Word(i), 0});
        p.flowIndex = i;
        flow.push_back(p);
    }
    return flow;
}

std::vector<std::uint64_t>
runPolicy(OrderPolicy &policy, std::uint64_t count)
{
    std::vector<std::uint64_t> out;
    for (auto &p : makeFlow(count)) {
        std::vector<Packet> rel;
        policy.arrive(std::move(p), rel);
        for (const auto &r : rel)
            out.push_back(r.flowIndex);
    }
    std::vector<Packet> rel;
    policy.flush(rel);
    for (const auto &r : rel)
        out.push_back(r.flowIndex);
    return out;
}

/** Count packets arriving before some earlier-injected packet. */
std::uint64_t
countOoo(const std::vector<std::uint64_t> &order)
{
    std::uint64_t ooo = 0;
    std::uint64_t expected = 0;
    std::set<std::uint64_t> early;
    for (auto idx : order) {
        if (idx == expected) {
            ++expected;
            while (early.count(expected)) {
                early.erase(expected);
                ++expected;
            }
        } else {
            early.insert(idx);
            ++ooo;
        }
    }
    return ooo;
}

TEST(OrderPolicy, FifoPreservesOrder)
{
    FifoOrder p;
    const auto order = runPolicy(p, 10);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderPolicy, SwapAdjacentIsExactlyHalfOoo)
{
    SwapAdjacentOrder p;
    const auto order = runPolicy(p, 8);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{1, 0, 3, 2, 5, 4, 7, 6}));
    EXPECT_EQ(countOoo(order), 4u);
}

TEST(OrderPolicy, SwapAdjacentFlushesOddTail)
{
    SwapAdjacentOrder p;
    const auto order = runPolicy(p, 5);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.back(), 4u); // held packet released at flush
}

TEST(OrderPolicy, PairSwapChanceZeroIsFifo)
{
    PairSwapChanceOrder p(0.0, 42);
    const auto order = runPolicy(p, 16);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderPolicy, PairSwapChanceOneIsSwapAdjacent)
{
    PairSwapChanceOrder p(1.0, 42);
    const auto order = runPolicy(p, 8);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{1, 0, 3, 2, 5, 4, 7, 6}));
}

TEST(OrderPolicy, RandomWindowDeliversEverything)
{
    RandomWindowOrder p(4, 99);
    const auto order = runPolicy(p, 19);
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), 19u);
    for (std::uint64_t i = 0; i < 19; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(OrderPolicy, FactoriesProduceIndependentFlows)
{
    auto factory = pairSwapChanceFactory(0.5, 1234);
    auto p1 = factory();
    auto p2 = factory();
    // Different flow seeds: same input, plausibly different output —
    // at minimum both must deliver all packets.
    const auto o1 = runPolicy(*p1, 32);
    const auto o2 = runPolicy(*p2, 32);
    EXPECT_EQ(o1.size(), 32u);
    EXPECT_EQ(o2.size(), 32u);
}

} // namespace
} // namespace msgsim
