#include "rdmanet/rdma_stack.hh"

#include <functional>
#include <memory>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace msgsim
{

RdmaStack::RdmaStack(const RdmaStackConfig &cfg) : cfg_(cfg)
{
    Machine::Config mc;
    mc.nodes = cfg_.nodes;
    mc.dataWords = cfg_.dataWords;
    mc.memWords = cfg_.memWords;

    RdmaNetwork::Config nc;
    nc.nodes = cfg_.nodes;
    nc.faults = cfg_.faults;
    nc.injectGap = cfg_.injectGap;
    nc.deliverGap = cfg_.deliverGap;
    machine_ = std::make_unique<Machine>(
        mc, [nc](Simulator &sim) {
            return std::make_unique<RdmaNetwork>(sim, nc);
        });

    RdmaNic::Config rc;
    rc.mtuWords = cfg_.dataWords;
    rc.mrCacheSlots = cfg_.mrCacheSlots;
    rc.cqCapacity = cfg_.cqCapacity;
    nics_.reserve(cfg_.nodes);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i)
        nics_.push_back(std::make_unique<RdmaNic>(
            machine_->node(i), machine_->network(), rc));
}

RdmaNic &
RdmaStack::nic(NodeId id)
{
    if (id >= nics_.size())
        msgsim_panic("rdma: node id ", id, " out of range");
    return *nics_[id];
}

RdmaNetwork &
RdmaStack::net()
{
    return static_cast<RdmaNetwork &>(machine_->network());
}

Word
RdmaStack::connectQp(NodeId a, NodeId b)
{
    const Word qp = nextQp_;
    nextQp_ = nextQp_ >= 200 ? 1 : nextQp_ + 1;
    nic(a).bindQp(qp, b);
    nic(b).bindQp(qp, a);
    return qp;
}

namespace
{

/**
 * Event-mode receive: poll the CQ from the simulated clock every
 * @p gap ticks until @p stop is set.  Models the progress thread a
 * verbs application runs instead of an arrival interrupt.
 */
void
schedulePollLoop(RdmaStack &stack, NodeId id,
                 std::shared_ptr<bool> stop, Tick gap)
{
    stack.sim().schedule(gap, [&stack, id, stop, gap] {
        if (*stop)
            return;
        Node &nd = stack.node(id);
        FeatureScope fs(nd.acct(), Feature::BaseCost);
        stack.nic(id).pollCq();
        schedulePollLoop(stack, id, stop, gap);
    });
}

/**
 * Poll-mode receive: settle the fabric, then harvest @p id's CQ.  A
 * run that overflows the CQ never settles on its own (the fabric
 * keeps retrying the fragment the full CQ refused), so a round also
 * ends at a new CQ-overflow stall, and the harvest reopens the CQ for
 * the next round.  A run that fits settles and harvests once.
 */
void
settleAndHarvest(RdmaStack &stack, NodeId id)
{
    RdmaNic &nic = stack.nic(id);
    for (;;) {
        const std::uint64_t stalls = nic.cqOverflowStalls();
        const bool stalled = stack.sim().runUntil(
            [&nic, stalls] { return nic.cqOverflowStalls() != stalls; },
            10'000'000);
        if (!stalled)
            stack.settle();
        {
            FeatureScope fs(stack.node(id).acct(), Feature::BaseCost);
            nic.pollCq();
        }
        if (!stalled)
            return;
    }
}

void
fill(Node &node, Addr buf, std::uint32_t words, std::uint64_t seed)
{
    for (std::uint32_t i = 0; i < words; ++i)
        node.mem().write(buf + i, static_cast<Word>(splitMix64(seed)));
}

bool
sameWords(Node &a, Addr abuf, Node &b, Addr bbuf, std::uint32_t words)
{
    for (std::uint32_t i = 0; i < words; ++i)
        if (a.mem().read(abuf + i) != b.mem().read(bbuf + i))
            return false;
    return true;
}

} // namespace

RunResult
runRdmaSingle(RdmaStack &stack, const RdmaRunParams &params)
{
    RunResult res;
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr src_buf = src.mem().alloc(n);
    const Addr dst_buf = dst.mem().alloc(n);
    fill(src, src_buf, n, params.fillSeed);

    int recvDone = 0;
    stack.nic(params.dst).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });

    const InstrCounter src_before = src.acct().counter();
    const InstrCounter dst_before = dst.acct().counter();
    const Tick t0 = stack.sim().now();

    {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        stack.nic(params.dst).regMr(dst_buf, n);
        stack.nic(params.dst).postRecv(qp, dst_buf, n, 1);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).regMr(src_buf, n);
        stack.nic(params.src).postSend(qp, src_buf, n, 1);
    }
    if (!params.eventMode) {
        settleAndHarvest(stack, params.dst);
    } else {
        auto stopFlag = std::make_shared<bool>(false);
        schedulePollLoop(stack, params.dst, stopFlag, 8);
        stack.sim().runUntil([&recvDone] { return recvDone > 0; },
                             50'000'000);
        *stopFlag = true;
        stack.settle();
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).pollCq(); // harvest the send completion
    }

    res.counts.src = src.acct().counter().diff(src_before);
    res.counts.dst = dst.acct().counter().diff(dst_before);
    res.elapsed = stack.sim().now() - t0;
    res.packets = 1;
    res.dataOk = recvDone == 1 &&
                 sameWords(src, src_buf, dst, dst_buf, n);
    stack.nic(params.dst).setCompletionFn(nullptr);
    return res;
}

RunResult
runRdmaAm4(RdmaStack &stack, const RdmaRunParams &params)
{
    RunResult res;
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr arg_buf = src.mem().alloc(n);  // request payload
    const Addr rep_buf = src.mem().alloc(n);  // reply lands here
    const Addr req_buf = dst.mem().alloc(n);  // request lands here
    const Addr hrep_buf = dst.mem().alloc(n); // handler's reply source
    fill(src, arg_buf, n, params.fillSeed);

    // The destination's completion handler: consume the request,
    // build the reply (args + 1) and send it back on the same QP.
    int served = 0;
    stack.nic(params.dst).setCompletionFn(
        [&](const RdmaNic::Completion &c) {
            if (c.kind != RdmaNic::Completion::Kind::Recv)
                return;
            FeatureScope fs(dst.acct(), Feature::BaseCost);
            Processor &p = dst.proc();
            for (std::uint32_t i = 0; i < n; ++i) {
                const Word w = p.loadWord(req_buf + i);
                p.regOps(1);
                p.storeWord(hrep_buf + i, w + 1);
            }
            stack.nic(params.dst).regMr(hrep_buf, n);
            stack.nic(params.dst).postSend(qp, hrep_buf, n, 2);
            ++served;
        });
    int replied = 0;
    stack.nic(params.src).setCompletionFn(
        [&replied](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++replied;
        });

    const InstrCounter src_before = src.acct().counter();
    const InstrCounter dst_before = dst.acct().counter();
    const Tick t0 = stack.sim().now();

    {
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        stack.nic(params.dst).regMr(req_buf, n);
        stack.nic(params.dst).postRecv(qp, req_buf, n, 1);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).regMr(rep_buf, n);
        stack.nic(params.src).postRecv(qp, rep_buf, n, 2);
        stack.nic(params.src).regMr(arg_buf, n);
        stack.nic(params.src).postSend(qp, arg_buf, n, 1);
    }
    if (!params.eventMode) {
        settleAndHarvest(stack, params.dst); // request in, reply out
        settleAndHarvest(stack, params.src); // reply + send completion
    } else {
        auto stopFlag = std::make_shared<bool>(false);
        schedulePollLoop(stack, params.dst, stopFlag, 8);
        schedulePollLoop(stack, params.src, stopFlag, 8);
        stack.sim().runUntil([&replied] { return replied > 0; },
                             50'000'000);
        *stopFlag = true;
        stack.settle();
    }

    res.counts.src = src.acct().counter().diff(src_before);
    res.counts.dst = dst.acct().counter().diff(dst_before);
    res.elapsed = stack.sim().now() - t0;
    res.packets = 2;
    res.dataOk = served == 1 && replied == 1;
    for (std::uint32_t i = 0; res.dataOk && i < n; ++i)
        if (src.mem().read(rep_buf + i) !=
            src.mem().read(arg_buf + i) + 1)
            res.dataOk = false;
    stack.nic(params.src).setCompletionFn(nullptr);
    stack.nic(params.dst).setCompletionFn(nullptr);
    return res;
}

RunResult
runRdmaFinite(RdmaStack &stack, const RdmaRunParams &params)
{
    RunResult res;
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    if (params.words == 0 || params.words % n != 0)
        msgsim_fatal("rdma finite transfer of ", params.words,
                     " words: not a multiple of the mtu ", n);

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr src_buf = src.mem().alloc(params.words);
    const Addr dst_buf = dst.mem().alloc(params.words);
    fill(src, src_buf, params.words, params.fillSeed);

    int recvDone = 0;
    stack.nic(params.dst).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });

    const InstrCounter src_before = src.acct().counter();
    const InstrCounter dst_before = dst.acct().counter();
    const Tick t0 = stack.sim().now();

    {
        // One registration, one receive, regardless of size: this is
        // why the per-packet software vanishes.
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        stack.nic(params.dst).regMr(dst_buf, params.words);
        stack.nic(params.dst).postRecv(qp, dst_buf, params.words, 1);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).regMr(src_buf, params.words);
        stack.nic(params.src).postSend(qp, src_buf, params.words, 1);
    }
    if (!params.eventMode) {
        settleAndHarvest(stack, params.dst);
    } else {
        auto stopFlag = std::make_shared<bool>(false);
        schedulePollLoop(stack, params.dst, stopFlag, 8);
        stack.sim().runUntil([&recvDone] { return recvDone > 0; },
                             50'000'000);
        *stopFlag = true;
        stack.settle();
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).pollCq();
    }

    res.counts.src = src.acct().counter().diff(src_before);
    res.counts.dst = dst.acct().counter().diff(dst_before);
    res.elapsed = stack.sim().now() - t0;
    res.packets = params.words / n;
    res.dataOk = recvDone == 1 &&
                 sameWords(src, src_buf, dst, dst_buf, params.words);
    stack.nic(params.dst).setCompletionFn(nullptr);
    return res;
}

RunResult
runRdmaStream(RdmaStack &stack, const RdmaRunParams &params)
{
    RunResult res;
    const auto n = static_cast<std::uint32_t>(stack.dataWords());
    Node &src = stack.node(params.src);
    Node &dst = stack.node(params.dst);
    if (params.words == 0 || params.words % n != 0)
        msgsim_fatal("rdma stream of ", params.words,
                     " words: not a multiple of the mtu ", n);
    const std::uint32_t messages = params.words / n;

    const Word qp = stack.connectQp(params.src, params.dst);
    const Addr src_buf = src.mem().alloc(params.words);
    const Addr dst_buf = dst.mem().alloc(params.words);
    fill(src, src_buf, params.words, params.fillSeed);

    std::uint32_t recvDone = 0;
    stack.nic(params.dst).setCompletionFn(
        [&recvDone](const RdmaNic::Completion &c) {
            if (c.kind == RdmaNic::Completion::Kind::Recv)
                ++recvDone;
        });

    const InstrCounter src_before = src.acct().counter();
    const InstrCounter dst_before = dst.acct().counter();
    const Tick t0 = stack.sim().now();

    {
        // One registration covers the whole stream; each message
        // still needs its posted receive (the verbs per-message tax).
        FeatureScope fs(dst.acct(), Feature::BaseCost);
        stack.nic(params.dst).regMr(dst_buf, params.words);
        for (std::uint32_t m = 0; m < messages; ++m)
            stack.nic(params.dst).postRecv(
                qp, dst_buf + m * n, n, m);
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).regMr(src_buf, params.words);
        for (std::uint32_t m = 0; m < messages; ++m) {
            int attempts = 0;
            while (!stack.nic(params.src).postSend(
                qp, src_buf + m * n, n, m)) {
                // Send CQ full: harvest completions and retry.
                if (++attempts > 1000)
                    msgsim_panic("rdma stream send livelock");
                stack.nic(params.src).pollCq();
            }
        }
    }
    if (!params.eventMode) {
        settleAndHarvest(stack, params.dst);
    } else {
        auto stopFlag = std::make_shared<bool>(false);
        schedulePollLoop(stack, params.dst, stopFlag, 8);
        stack.sim().runUntil(
            [&recvDone, messages] { return recvDone == messages; },
            50'000'000);
        *stopFlag = true;
        stack.settle();
    }
    {
        FeatureScope fs(src.acct(), Feature::BaseCost);
        stack.nic(params.src).pollCq();
    }

    res.counts.src = src.acct().counter().diff(src_before);
    res.counts.dst = dst.acct().counter().diff(dst_before);
    res.elapsed = stack.sim().now() - t0;
    res.packets = messages;
    res.dataOk = recvDone == messages &&
                 sameWords(src, src_buf, dst, dst_buf, params.words);
    stack.nic(params.dst).setCompletionFn(nullptr);
    return res;
}

} // namespace msgsim
