/**
 * @file
 * Tests of the CMAM layer itself: active-message dispatch, poll
 * semantics, control sinks, the segment table, and the xfer send
 * path, independent of whole-protocol drivers.
 */

#include <gtest/gtest.h>

#include "protocols/stack.hh"
#include "sim/log.hh"

namespace msgsim
{
namespace
{

StackConfig
twoNodes()
{
    StackConfig cfg;
    cfg.nodes = 2;
    return cfg;
}

struct ThrowOnError
{
    ThrowOnError() { log_detail::throwOnError = true; }
    ~ThrowOnError() { log_detail::throwOnError = false; }
};

TEST(Cmam, Am4DeliversArgsToHandler)
{
    Stack stack(twoNodes());
    NodeId from = 99;
    std::vector<Word> got;
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId src, const std::vector<Word> &args) {
            from = src;
            got = args;
        });
    stack.cmam(0).am4(1, h, {11, 22, 33, 44});
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(got, (std::vector<Word>{11, 22, 33, 44}));
}

TEST(Cmam, ShortPayloadZeroPadded)
{
    Stack stack(twoNodes());
    std::vector<Word> got;
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &args) { got = args; });
    stack.cmam(0).am4(1, h, {7});
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(got, (std::vector<Word>{7, 0, 0, 0}));
}

TEST(Cmam, NestedPollLeavesOuterHandlerArgsIntact)
{
    // The outer handler polls its own node, which dispatches the
    // second AM; the outer args must not be overwritten by it.
    Stack stack(twoNodes());
    std::vector<Word> inner, outerBefore, outerAfter;
    const int hInner = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &args) { inner = args; });
    const int hOuter = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &args) {
            outerBefore = args;
            EXPECT_EQ(stack.cmam(1).poll(), 1);
            outerAfter = args;
        });
    stack.cmam(0).am4(1, hOuter, {1, 2, 3, 4});
    stack.cmam(0).am4(1, hInner, {5, 6, 7, 8});
    stack.settle();
    EXPECT_EQ(stack.cmam(1).poll(), 1); // the nested poll took the other
    EXPECT_EQ(outerBefore, (std::vector<Word>{1, 2, 3, 4}));
    EXPECT_EQ(outerAfter, outerBefore);
    EXPECT_EQ(inner, (std::vector<Word>{5, 6, 7, 8}));
}

TEST(Cmam, RecycledPayloadCarriesNoStaleWords)
{
    // A full 128-word packet's payload is recycled when its last
    // word is read; the next am4 is staged into that same storage
    // (and dispatched through the same args buffer) and must carry
    // exactly its 4 words: the two sent plus zero padding.
    StackConfig cfg = twoNodes();
    cfg.dataWords = 128;
    Stack stack(cfg);
    std::vector<Word> got;
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &args) { got = args; });

    std::vector<Word> full(128);
    for (std::size_t i = 0; i < full.size(); ++i)
        full[i] = 0xdead0000u + static_cast<Word>(i);
    stack.cmam(0).sendTagged(HwTag::UserAm, 1,
                             hdr::pack(static_cast<std::uint32_t>(h), 0),
                             full, /*lenWords=*/0);
    stack.settle();
    stack.cmam(1).poll();
    ASSERT_EQ(got, full);

    stack.cmam(0).am4(1, h, {5, 6});
    stack.settle();
    const Packet *head = stack.node(1).ni().hwPeekRecv();
    ASSERT_NE(head, nullptr);
    EXPECT_GE(head->data.capacity(), 128u) << "payload was not recycled";
    EXPECT_EQ(head->data, (std::vector<Word>{5, 6, 0, 0}));
    stack.cmam(1).poll();
    EXPECT_EQ(got, (std::vector<Word>{5, 6, 0, 0}));
}

TEST(Cmam, PollDrainsMultiplePackets)
{
    Stack stack(twoNodes());
    int calls = 0;
    const int h = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &) { ++calls; });
    for (Word i = 0; i < 5; ++i)
        stack.cmam(0).am4(1, h, {i});
    stack.settle();
    EXPECT_EQ(stack.cmam(1).poll(), 5);
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(stack.cmam(1).poll(), 0); // nothing left
}

TEST(Cmam, HandlersDispatchByIndex)
{
    Stack stack(twoNodes());
    int which = -1;
    const int h0 = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &) { which = 0; });
    const int h1 = stack.cmam(1).registerHandler(
        [&](NodeId, const std::vector<Word> &) { which = 1; });
    ASSERT_NE(h0, h1);
    stack.cmam(0).am4(1, h1, {});
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(which, 1);
}

TEST(Cmam, ControlSinkReceivesHeaderArgAndPayload)
{
    Stack stack(twoNodes());
    Word hdr_arg = 0;
    std::vector<Word> payload;
    stack.cmam(1).setControlSink(
        CtrlOp::GenericA,
        [&](NodeId, Word arg, const std::vector<Word> &args) {
            hdr_arg = arg;
            payload = args;
        });
    stack.cmam(0).sendControl(1, CtrlOp::GenericA, 0x1234, {5, 6});
    stack.settle();
    stack.cmam(1).poll();
    EXPECT_EQ(hdr_arg, 0x1234u);
    EXPECT_EQ(payload, (std::vector<Word>{5, 6, 0, 0}));
}

TEST(Cmam, UnregisteredHandlerPanics)
{
    ThrowOnError guard;
    Stack stack(twoNodes());
    const int h = stack.cmam(1).registerHandler(
        [](NodeId, const std::vector<Word> &) {});
    // Valid send to node 1 but polled on node 1 with a hole: craft a
    // handler index beyond what node 1 registered.
    stack.cmam(0).am4(1, h + 1, {});
    stack.settle();
    EXPECT_THROW(stack.cmam(1).poll(), log_detail::SimError);
}

TEST(Cmam, OversizedPayloadFatal)
{
    ThrowOnError guard;
    Stack stack(twoNodes());
    const int h = stack.cmam(1).registerHandler(
        [](NodeId, const std::vector<Word> &) {});
    EXPECT_THROW(stack.cmam(0).am4(1, h, {1, 2, 3, 4, 5}),
                 log_detail::SimError);
}

// --- Segment table -------------------------------------------------

TEST(Segments, AllocAndFreeRoundTrip)
{
    Stack stack(twoNodes());
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();

    const Word id = segs.alloc(n.proc(), 0x100, 4);
    ASSERT_NE(id, invalidSegment);
    EXPECT_TRUE(segs.isActive(id));
    EXPECT_EQ(segs.bufBase(id), 0x100u);
    EXPECT_EQ(segs.remaining(id), 4u);
    EXPECT_EQ(segs.allocatedCount(), 1);

    segs.free(n.proc(), id);
    EXPECT_FALSE(segs.isActive(id));
    EXPECT_EQ(segs.allocatedCount(), 0);
}

TEST(Segments, AllocChargesPaperCosts)
{
    Stack stack(twoNodes());
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();

    const InstrCounter before = n.acct().counter();
    const Word id = segs.alloc(n.proc(), 0x40, 2);
    InstrCounter alloc_cost = n.acct().counter().diff(before);
    EXPECT_EQ(alloc_cost.categoryTotal(Category::Reg), 25u);
    EXPECT_EQ(alloc_cost.categoryTotal(Category::Mem), 8u);
    EXPECT_EQ(alloc_cost.categoryTotal(Category::Dev), 0u);

    const InstrCounter mid = n.acct().counter();
    segs.free(n.proc(), id);
    InstrCounter free_cost = n.acct().counter().diff(mid);
    EXPECT_EQ(free_cost.categoryTotal(Category::Reg), 18u);
    EXPECT_EQ(free_cost.categoryTotal(Category::Mem), 3u);
}

TEST(Segments, ExhaustionReturnsInvalid)
{
    StackConfig cfg = twoNodes();
    cfg.maxSegments = 2;
    Stack stack(cfg);
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();

    EXPECT_NE(segs.alloc(n.proc(), 0, 1), invalidSegment);
    EXPECT_NE(segs.alloc(n.proc(), 0, 1), invalidSegment);
    EXPECT_EQ(segs.alloc(n.proc(), 0, 1), invalidSegment);
    EXPECT_FALSE(segs.hasFree());
}

TEST(Segments, FifoReuseMaximizesDistance)
{
    StackConfig cfg = twoNodes();
    cfg.maxSegments = 4;
    Stack stack(cfg);
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();

    const Word a = segs.alloc(n.proc(), 0, 1); // 0
    segs.free(n.proc(), a);
    // The just-freed id must go to the back of the queue.
    const Word b = segs.alloc(n.proc(), 0, 1);
    EXPECT_NE(b, a);
}

TEST(Segments, PacketArrivedCountsDown)
{
    Stack stack(twoNodes());
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();
    const Word id = segs.alloc(n.proc(), 0, 3);
    EXPECT_FALSE(segs.packetArrived(n.proc(), id));
    EXPECT_FALSE(segs.packetArrived(n.proc(), id));
    EXPECT_TRUE(segs.packetArrived(n.proc(), id));
}

TEST(Segments, CompletionCallbackTakenOnce)
{
    Stack stack(twoNodes());
    Node &n = stack.node(0);
    SegmentTable &segs = stack.cmam(0).segments();
    const Word id = segs.alloc(n.proc(), 0, 1);
    int fired = 0;
    segs.setCompletion(id, [&fired](Word) { ++fired; });
    auto fn = segs.takeCompletion(id);
    fn(id);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(static_cast<bool>(segs.takeCompletion(id)));
}

// --- xfer send/receive without the full protocol -------------------

TEST(Cmam, XferMovesMemoryToSegmentBuffer)
{
    Stack stack(twoNodes());
    Node &src = stack.node(0);
    Node &dst = stack.node(1);

    const Addr sbuf = src.mem().alloc(16);
    const Addr dbuf = dst.mem().alloc(16);
    for (Word i = 0; i < 16; ++i)
        src.mem().write(sbuf + i, 1000 + i);

    const Word seg = stack.cmam(1).segments().alloc(dst.proc(), dbuf, 4);
    bool complete = false;
    stack.cmam(1).segments().setCompletion(seg,
                                           [&](Word) { complete = true; });

    stack.cmam(0).xferSend(1, seg, sbuf, 16);
    stack.settle();
    stack.cmam(1).poll();

    EXPECT_TRUE(complete);
    for (Word i = 0; i < 16; ++i)
        EXPECT_EQ(dst.mem().read(dbuf + i), 1000 + i);
}

TEST(Cmam, XferOffsetsMakeItOrderInsensitive)
{
    // The offset-carrying protocol must place data correctly even
    // when every adjacent pair of packets is swapped in flight.
    StackConfig cfg = twoNodes();
    cfg.order = swapAdjacentFactory();
    Stack stack(cfg);
    Node &src = stack.node(0);
    Node &dst = stack.node(1);

    const Addr sbuf = src.mem().alloc(32);
    const Addr dbuf = dst.mem().alloc(32);
    for (Word i = 0; i < 32; ++i)
        src.mem().write(sbuf + i, 7000 + i);

    const Word seg = stack.cmam(1).segments().alloc(dst.proc(), dbuf, 8);
    stack.cmam(0).xferSend(1, seg, sbuf, 32);
    stack.settle();
    stack.cmam(1).poll();

    for (Word i = 0; i < 32; ++i)
        EXPECT_EQ(dst.mem().read(dbuf + i), 7000 + i);
}

TEST(Cmam, XferRejectsNonMultipleSize)
{
    ThrowOnError guard;
    Stack stack(twoNodes());
    EXPECT_THROW(stack.cmam(0).xferSend(1, 0, 0, 10),
                 log_detail::SimError);
}

} // namespace
} // namespace msgsim
