#include "traffic/engine.hh"

#include <algorithm>

#include "hostprof/hostprof.hh"
#include "sim/log.hh"

namespace msgsim
{

namespace
{

constexpr Word kMagic = 0x5a5a5a5au;
constexpr std::uint32_t kSeqBits = 20;
constexpr std::uint32_t kSeqMask = (1u << kSeqBits) - 1;

/** Data fragment meta: (source node << 20) | fragment sequence. */
Word
packMeta(NodeId src, std::uint32_t fragSeq)
{
    return (static_cast<Word>(src) << kSeqBits) | (fragSeq & kSeqMask);
}

NodeId metaNode(Word m) { return m >> kSeqBits; }
std::uint32_t metaSeq(Word m) { return m & kSeqMask; }

Word
checksum(Word meta, Word pay)
{
    return meta ^ pay ^ kMagic;
}

/** One feature's (reg, mem, dev) slice of an instruction counter. */
CatCost
catOf(const InstrCounter &c, Feature f)
{
    return {static_cast<double>(c.get(f, OpClass::Reg)),
            static_cast<double>(c.get(f, OpClass::MemLoad) +
                                c.get(f, OpClass::MemStore)),
            static_cast<double>(c.get(f, OpClass::DevLoad) +
                                c.get(f, OpClass::DevStore))};
}

} // namespace

const char *
toString(TrafficProto p)
{
    switch (p) {
      case TrafficProto::Am:    return "am";
      case TrafficProto::Seq:   return "seq";
      case TrafficProto::Acked: return "acked";
      default:                  return "?";
    }
}

bool
protoFromString(const std::string &name, TrafficProto &out)
{
    if (name == "am")
        out = TrafficProto::Am;
    else if (name == "seq")
        out = TrafficProto::Seq;
    else if (name == "acked")
        out = TrafficProto::Acked;
    else
        return false;
    return true;
}

StackConfig
trafficStackConfig(const TrafficSpec &spec, Substrate substrate)
{
    StackConfig cfg;
    cfg.substrate = substrate;
    cfg.nodes = spec.nodes;
    cfg.maxJitter = spec.maxJitter;
    cfg.injectGap = spec.injectGap;
    cfg.deliverGap = spec.deliverGap;
    cfg.seed = spec.seed ^ 0xc0ffeeULL;
    return cfg;
}

CatCost
TrafficResult::measuredTotal() const
{
    CatCost t;
    for (const auto &f : measured)
        t += f;
    return t;
}

double
TrafficResult::measuredGrandTotal() const
{
    return measuredTotal().total();
}

WindowedHistogram
TrafficResult::latencyHistogram(std::uint64_t windowTicks,
                                std::size_t bins) const
{
    double hi = 1.0;
    for (const MsgTiming &t : timings)
        hi = std::max(hi, static_cast<double>(t.latency()) + 1.0);
    WindowedHistogram wh(windowTicks, 0.0, hi, bins);
    for (const MsgTiming &t : timings)
        wh.sample(t.birth, static_cast<double>(t.latency()));
    return wh;
}

TrafficEngine::TrafficEngine(Stack &stack) : stack_(stack)
{
    const std::uint32_t n = stack_.machine().nodeCount();
    dataHandler_.resize(n);
    ackHandler_.resize(n);
    scratchAddr_.resize(n);
    for (NodeId id = 0; id < n; ++id) {
        dataHandler_[id] = stack_.cmam(id).registerHandler(
            [this, id](NodeId src, const std::vector<Word> &args) {
                onData(id, src, args);
            });
        ackHandler_[id] = stack_.cmam(id).registerHandler(
            [this, id](NodeId src, const std::vector<Word> &args) {
                onAck(id, src, args);
            });
        // Uncharged boot-time allocation: the word the protocol
        // bookkeeping loads/stores against.
        scratchAddr_[id] = stack_.node(id).mem().alloc(1);
    }
}

void
TrafficEngine::consume(NodeId self, NodeId src, Word meta, Word pay)
{
    // Uncharged host-side verification bookkeeping (the charged
    // verify happened at arrival, under handlerBaseReg).  Completion
    // timing writes into preallocated arrays only — this path runs
    // inside hostprof scopes and must not allocate.
    (void)pay;
    ++consumed_;
    if (spec_->proto == TrafficProto::Acked)
        return; // the loop closes at ack consumption instead
    const std::size_t idx =
        msgIndex(src, self, metaSeq(meta) / latFrags_);
    if (++msgFrags_[idx] == latFrags_)
        msgDone_[idx] = stack_.sim().now();
}

void
TrafficEngine::sendAck(NodeId self, NodeId src, std::uint32_t ackIdx)
{
    Node &node = stack_.node(self);
    const Word meta = packMeta(self, ackIdx);
    FeatureScope ft(node.acct(), Feature::FaultTolerance);
    stack_.cmam(self).am4Reply(src, ackHandler_[src],
                               {meta, 0, checksum(meta, 0)});
    ++shape_.acksSent;
}

void
TrafficEngine::onData(NodeId self, NodeId src,
                      const std::vector<Word> &args)
{
    Node &node = stack_.node(self);
    Processor &p = node.proc();
    Accounting &a = node.acct();
    namespace tc = traffic_cost;

    // Unpack meta and verify the checksum (charged base cost: this
    // runs under the poll scope).
    p.regOps(tc::handlerBaseReg);
    const Word meta = args.at(0);
    const Word pay = args.at(1);
    ++shape_.fragmentsDelivered;
    if (args.at(2) != checksum(meta, pay) || metaNode(meta) != src) {
        ++badPayloads_;
        return;
    }

    switch (spec_->proto) {
      case TrafficProto::Am:
        consume(self, src, meta, pay);
        break;

      case TrafficProto::Seq: {
        const std::uint32_t fragSeq = metaSeq(meta);
        std::uint32_t &expect = expect_[self][src];
        auto &stash = stash_[self][src];
        FeatureScope io(a, Feature::InOrderDelivery);
        p.regOps(tc::seqCheckReg);
        if (fragSeq == expect) {
            p.regOps(tc::seqAdvanceReg);
            ++expect;
            consume(self, src, meta, pay);
            // Drain every stashed fragment whose turn has come.
            for (auto it = stash.find(expect); it != stash.end();
                 it = stash.find(expect)) {
                p.regOps(tc::seqDrainReg);
                (void)p.loadWord(scratchAddr_[self]);
                consume(self, src, packMeta(src, expect),
                        it->second);
                stash.erase(it);
                ++expect;
            }
        } else if (fragSeq > expect) {
            p.regOps(tc::seqStashReg);
            p.storeWord(scratchAddr_[self], pay);
            stash.emplace(fragSeq, pay);
            ++shape_.ooo;
        } else {
            ++badPayloads_; // duplicate: impossible fault-free
        }
        break;
      }

      case TrafficProto::Acked: {
        consume(self, src, meta, pay);
        FeatureScope ft(a, Feature::FaultTolerance);
        p.regOps(tc::ackTrackReg);
        const std::uint32_t got = ++fragsGot_[self][src];
        const std::uint32_t k = spec_->fragmentsPerMessage();
        if (got % k == 0)
            sendAck(self, src, got / k - 1);
        break;
      }
    }
}

void
TrafficEngine::onAck(NodeId self, NodeId src,
                     const std::vector<Word> &args)
{
    Node &node = stack_.node(self);
    Processor &p = node.proc();
    namespace tc = traffic_cost;

    ++shape_.acksDelivered;
    const Word meta = args.at(0);
    if (args.at(2) != checksum(meta, args.at(1)) ||
        metaNode(meta) != src) {
        ++badPayloads_;
        return;
    }
    // Release the retransmit hold for the acked message.
    FeatureScope ft(node.acct(), Feature::FaultTolerance);
    p.regOps(tc::ackConsumeReg);
    (void)p.loadWord(scratchAddr_[self]);
    ++acksGot_[self];

    // Ack consumption closes the message's loop at its source.
    const std::size_t idx = msgIndex(self, src, metaSeq(meta));
    msgFrags_[idx] = latFrags_;
    msgDone_[idx] = stack_.sim().now();
}

TrafficResult
TrafficEngine::run(const TrafficSpec &spec)
{
    TrafficResult res;
    const std::uint32_t n = stack_.machine().nodeCount();
    if (spec.nodes != n)
        msgsim_fatal("traffic spec wants ", spec.nodes,
                     " nodes but the stack has ", n);
    if (n >= (1u << (32 - kSeqBits)))
        msgsim_fatal("traffic: too many nodes for the meta format");
    const std::uint32_t frags = spec.fragmentsPerMessage();
    const std::uint64_t totalFrags =
        static_cast<std::uint64_t>(spec.messagesPerNode) * frags;
    if (totalFrags >= kSeqMask)
        msgsim_fatal("traffic: fragment sequence space exhausted");
    if (spec.messagesPerNode == 0)
        msgsim_fatal("traffic: need at least one message per node");

    spec_ = &spec;
    shape_ = TrafficShape{};
    shape_.seq = spec.proto == TrafficProto::Seq;
    shape_.acked = spec.proto == TrafficProto::Acked;
    badPayloads_ = 0;
    consumed_ = 0;
    expect_.assign(n, std::vector<std::uint32_t>(n, 0));
    stash_.assign(
        n, std::vector<std::map<std::uint32_t, Word>>(n));
    fragsGot_.assign(n, std::vector<std::uint32_t>(n, 0));
    acksGot_.assign(n, 0);

    // Latency bookkeeping: a flow (src, dst) carries at most
    // messagesPerNode messages, so [src][dst][msg] flat arrays cover
    // every message.  Sized here, before any hostprof scope opens.
    latFrags_ = frags;
    latMsgs_ = spec.messagesPerNode;
    latNodes_ = n;
    const std::size_t latSlots = static_cast<std::size_t>(n) * n *
                                 spec.messagesPerNode;
    msgBirth_.assign(latSlots, 0);
    msgDone_.assign(latSlots, 0);
    msgFrags_.assign(latSlots, 0);

    std::vector<InstrCounter> before(n);
    for (NodeId id = 0; id < n; ++id)
        before[id] = stack_.node(id).acct().counter();
    const auto statsBefore = stack_.network().stats();
    const Tick t0 = stack_.sim().now();

    TrafficGen gen(n, spec.pattern, spec.seed, spec.hotFraction);
    Rng payRng(spec.seed ^ 0x9e3779b97f4a7c15ULL);
    namespace tc = traffic_cost;

    // Fragment sequences are per (src, dst) *flow* — that is what the
    // receiver's in-order machinery orders against, so a source whose
    // pattern spreads messages over many destinations must not leave
    // sequence gaps in any one flow.
    std::vector<std::vector<std::uint32_t>> flowSeq(
        n, std::vector<std::uint32_t>(n, 0));

    const auto drainOnce = [&]() -> bool {
        hostprof::HostScope hs(hostprof::Site::TrafficDrain);
        stack_.settle();
        bool any = false;
        for (NodeId id = 0; id < n; ++id) {
            Node &node = stack_.node(id);
            if (!node.ni().hwRecvPending())
                continue;
            any = true;
            FeatureScope fs(node.acct(), Feature::BaseCost);
            stack_.cmam(id).poll();
            ++shape_.polls;
        }
        return any;
    };

    for (std::uint32_t k = 0; k < spec.messagesPerNode; ++k) {
        {
            hostprof::HostScope hs(hostprof::Site::TrafficSend);
            for (NodeId src = 0; src < n; ++src) {
                const NodeId dst = gen.destFor(src);
                Node &node = stack_.node(src);
                for (std::uint32_t f = 0; f < frags; ++f) {
                    const std::uint32_t fragSeq = flowSeq[src][dst]++;
                    if (f == 0)
                        msgBirth_[msgIndex(src, dst,
                                           fragSeq / frags)] =
                            stack_.sim().now();
                    const Word meta = packMeta(src, fragSeq);
                    const Word pay =
                        static_cast<Word>(payRng.next());
                    {
                        FeatureScope fs(node.acct(),
                                        Feature::BaseCost);
                        stack_.cmam(src).am4(
                            dst, dataHandler_[dst],
                            {meta, pay, checksum(meta, pay)});
                    }
                    ++shape_.fragmentsSent;
                    if (spec.proto == TrafficProto::Acked) {
                        // Hold the fragment for retransmission.
                        FeatureScope ft(node.acct(),
                                        Feature::FaultTolerance);
                        node.proc().regOps(tc::ackHoldReg);
                        node.proc().storeWord(scratchAddr_[src],
                                              pay);
                    }
                }
            }
        }
        // Drain as we go so receive FIFOs stay shallow.
        drainOnce();
    }

    const std::uint64_t wantConsumed =
        static_cast<std::uint64_t>(n) * totalFrags;
    const std::uint64_t wantAcks =
        spec.proto == TrafficProto::Acked
            ? static_cast<std::uint64_t>(n) * spec.messagesPerNode
            : 0;
    const auto done = [&] {
        if (consumed_ < wantConsumed)
            return false;
        if (shape_.acksDelivered < wantAcks)
            return false;
        return true;
    };
    for (int round = 0; round < 1024 && !done(); ++round)
        if (!drainOnce() && !done())
            break;

    bool stashesEmpty = true;
    for (const auto &row : stash_)
        for (const auto &s : row)
            if (!s.empty())
                stashesEmpty = false;

    // Collect the completed-message timings in flow order (no
    // hostprof scope is open here, so growing the vector is fine).
    res.timings.reserve(static_cast<std::size_t>(n) *
                        spec.messagesPerNode);
    for (std::size_t i = 0; i < msgFrags_.size(); ++i)
        if (msgFrags_[i] == latFrags_)
            res.timings.push_back(MsgTiming{msgBirth_[i], msgDone_[i]});

    double maxInstr = 0;
    for (NodeId id = 0; id < n; ++id) {
        const InstrCounter diff =
            stack_.node(id).acct().counter().diff(before[id]);
        for (int f = 0; f < numPaperFeatures; ++f)
            res.measured[f] +=
                catOf(diff, static_cast<Feature>(f));
        const double instr = static_cast<double>(diff.paperTotal());
        res.perNodeInstr.sample(instr);
        maxInstr = std::max(maxInstr, instr);
    }
    const auto statsAfter = stack_.network().stats();
    res.hwRetries = statsAfter.hwRetries - statsBefore.hwRetries;
    res.deliveryRetries =
        statsAfter.deliveryRetries - statsBefore.deliveryRetries;
    res.elapsed = stack_.sim().now() - t0;
    res.shape = shape_;
    res.ok = done() && badPayloads_ == 0 && stashesEmpty &&
             shape_.fragmentsDelivered == shape_.fragmentsSent &&
             shape_.acksDelivered == shape_.acksSent;
    res.maxOverMean = res.perNodeInstr.mean() > 0
                          ? maxInstr / res.perNodeInstr.mean()
                          : 0;
    spec_ = nullptr;
    return res;
}

} // namespace msgsim
