/**
 * @file
 * Tests of the profiling layer (src/prof): packet lineage recording
 * and flow export, the Chrome-trace schema invariants of a traced
 * run, the latency waterfall, folded cost stacks, the differential
 * table, histogram percentile edge cases, and CLI flag parsing —
 * plus the PR 1 design rule extended to the full profiling kit:
 * instruction counts are bit-identical with it on or off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/accounting.hh"
#include "core/json.hh"
#include "prof/lineage.hh"
#include "prof/prof_cli.hh"
#include "prof/profile.hh"
#include "prof/profiler.hh"
#include "protocols/finite_xfer.hh"
#include "sim/obs_cli.hh"
#include "sim/stats.hh"
#include "sim/trace_session.hh"

namespace msgsim
{
namespace
{

// ----------------------------------------------------------------
// Lineage recording.
// ----------------------------------------------------------------

TEST(Lineage, StampsEveryPacketAndLinksHandlerChildren)
{
    prof::ProfConfig cfg;
    const auto run = prof::runProfiled(cfg);
    ASSERT_TRUE(run.result.dataOk);
    EXPECT_GT(run.packetsTracked, 0u);
    EXPECT_GT(run.lineageEdges, run.packetsTracked);
}

TEST(Lineage, ParentageFormsTreesRootedAtRequests)
{
    TraceSession ts;
    ts.attach();
    prof::LineageSession lineage;
    {
        StackConfig cfg;
        cfg.nodes = 2;
        Stack stack(cfg);
        ts.bindClock(&stack.sim());
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.words = 16;
        ASSERT_TRUE(proto.run(p).dataOk);
        ts.bindClock(nullptr);
    }
    ts.detach();

    // Every recorded lineage resolves to a root, and at least one
    // packet (an ack or reply born inside a handler) is a child.
    std::set<std::uint64_t> lineages;
    std::uint64_t children = 0;
    for (const auto &e : lineage.edges())
        if (e.lineage != 0)
            lineages.insert(e.lineage);
    for (const auto id : lineages) {
        const auto root = lineage.rootOf(id);
        EXPECT_NE(root, 0u);
        EXPECT_EQ(lineage.parentOf(root), 0u);
        if (lineage.parentOf(id) != 0)
            ++children;
    }
    EXPECT_GT(lineages.size(), 1u);
    EXPECT_GT(children, 0u);
    EXPECT_EQ(lineage.edgesDropped(), 0u);
}

TEST(Lineage, EdgeRingCapDropsInsteadOfGrowing)
{
    prof::LineageSession::Config cfg;
    cfg.maxEdges = 4;
    prof::LineageSession lineage(cfg);
    {
        StackConfig sc;
        sc.nodes = 2;
        Stack stack(sc);
        FiniteXfer proto(stack);
        FiniteXferParams p;
        p.words = 16;
        ASSERT_TRUE(proto.run(p).dataOk);
    }
    EXPECT_EQ(lineage.edges().size(), 4u);
    EXPECT_GT(lineage.edgesDropped(), 0u);
}

// ----------------------------------------------------------------
// Chrome-trace schema invariants of a traced profiled run.
// ----------------------------------------------------------------

/** Run one profiled protocol under a trace and parse the timeline. */
Json
tracedTimeline(const std::string &protocol)
{
    TraceSession ts;
    ts.attach();
    prof::ProfConfig cfg;
    cfg.protocol = protocol;
    const auto run = prof::runProfiled(cfg);
    ts.detach();
    EXPECT_TRUE(run.result.dataOk);

    Json doc;
    std::string error;
    EXPECT_TRUE(Json::parse(ts.chromeTraceJson(), doc, &error))
        << error;
    return doc;
}

void
checkTimelineInvariants(const Json &doc)
{
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);

    // Flow chains: id -> phases in emission order, with timestamps.
    std::map<std::int64_t, std::vector<std::string>> flowPhases;
    std::map<std::int64_t, std::vector<double>> flowTs;
    std::uint64_t spans = 0;

    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        const Json *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string &phase = ph->asString();
        if (phase == "M")
            continue; // metadata carries no timestamp
        const Json *tsField = ev.find("ts");
        ASSERT_NE(tsField, nullptr);
        EXPECT_GE(tsField->asReal(), 0.0);
        if (phase == "X") {
            // Complete events are the matched begin/end pairs: the
            // exporter only emits them for closed spans, and each
            // carries its duration and owning node track.
            ++spans;
            const Json *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr);
            EXPECT_GE(dur->asReal(), 0.0);
            ASSERT_NE(ev.find("tid"), nullptr);
        } else if (phase == "s" || phase == "t" || phase == "f") {
            const Json *id = ev.find("id");
            ASSERT_NE(id, nullptr);
            flowPhases[id->asInt()].push_back(phase);
            flowTs[id->asInt()].push_back(tsField->asReal());
            if (phase == "f") {
                const Json *bp = ev.find("bp");
                ASSERT_NE(bp, nullptr);
                EXPECT_EQ(bp->asString(), "e");
            }
        }
    }
    EXPECT_GT(spans, 0u);
    ASSERT_FALSE(flowPhases.empty());

    for (const auto &[id, phases] : flowPhases) {
        // Each flow id resolves to a chain: one start, one end,
        // steps in between — at least two points total.
        ASSERT_GE(phases.size(), 2u) << "flow " << id;
        EXPECT_EQ(phases.front(), "s") << "flow " << id;
        EXPECT_EQ(phases.back(), "f") << "flow " << id;
        for (std::size_t i = 1; i + 1 < phases.size(); ++i)
            EXPECT_EQ(phases[i], "t") << "flow " << id;
        // Arrows never point backwards in time.
        const auto &tss = flowTs.at(id);
        for (std::size_t i = 1; i < tss.size(); ++i)
            EXPECT_GE(tss[i], tss[i - 1]) << "flow " << id;
    }
}

TEST(TraceSchema, SinglePacketTimelineIsValid)
{
    checkTimelineInvariants(tracedTimeline("single"));
}

TEST(TraceSchema, FiniteXferTimelineIsValid)
{
    checkTimelineInvariants(tracedTimeline("xfer"));
}

// ----------------------------------------------------------------
// Latency waterfall.
// ----------------------------------------------------------------

TEST(Waterfall, HasFiveSegmentsInPipelineOrder)
{
    prof::ProfConfig cfg;
    const auto run = prof::runProfiled(cfg);
    const auto &wf = run.waterfall;
    ASSERT_EQ(wf.segments.size(), 5u);
    const char *expected[] = {"send_sw", "wire", "queue_wait",
                              "recv_sw", "ack_wait"};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(wf.segments[i].name, expected[i]);
    EXPECT_GT(wf.lineages, 0u);
    // Every data packet contributes a wire-transit sample.
    EXPECT_EQ(wf.segments[1].samples.size(), run.packetsTracked);

    const std::string text = wf.render();
    for (const char *name : expected)
        EXPECT_NE(text.find(name), std::string::npos) << name;

    const Json j = wf.toJson();
    const Json *segs = j.find("segments");
    ASSERT_NE(segs, nullptr);
    EXPECT_EQ(segs->size(), 5u);
}

// ----------------------------------------------------------------
// Folded cost stacks.
// ----------------------------------------------------------------

TEST(FoldedStacks, LinesAreFlamegraphGrammar)
{
    prof::ProfConfig cfg;
    const auto run = prof::runProfiled(cfg);
    ASSERT_FALSE(run.folded.empty());

    std::istringstream is(run.folded);
    std::string line;
    std::uint64_t lines = 0;
    bool sawBase = false;
    while (std::getline(is, line)) {
        ++lines;
        // "<frame>;<frame>;...;<feature>;<category> <count>"
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string path = line.substr(0, space);
        const std::string count = line.substr(space + 1);
        EXPECT_NE(path.find(';'), std::string::npos) << line;
        EXPECT_EQ(path.rfind("cm5;node", 0), 0u) << line;
        EXPECT_GT(std::stoull(count), 0u) << line;
        if (path.find(";base_cost;") != std::string::npos)
            sawBase = true;
    }
    EXPECT_GT(lines, 4u);
    EXPECT_TRUE(sawBase);
    // The feature names are slugs — never the spaced display names,
    // which would break the "space separates the count" grammar.
    EXPECT_EQ(run.folded.find("Base Cost"), std::string::npos);
}

TEST(FoldedStacks, SelfCostExcludesChildSpans)
{
    // A parent span whose instructions all happen inside a child
    // must fold zero self cost: charge 5 in the child only.
    Accounting acct;
    TraceSession ts;
    prof::CostProfiler profiler("t");
    profiler.bindNode(0, &acct);
    ts.setSpanObserver(&profiler);

    ts.beginSpan(0, "proto", "outer");
    ts.beginSpan(0, "proto", "inner");
    acct.charge(OpClass::Reg, 5);
    ts.endSpan(0);
    ts.endSpan(0);
    ts.setSpanObserver(nullptr);

    const auto &stacks = profiler.stacks();
    const auto inner =
        stacks.find("t;node0;proto/outer;proto/inner");
    const auto outer = stacks.find("t;node0;proto/outer");
    ASSERT_NE(inner, stacks.end());
    EXPECT_EQ(inner->second.total(), 5u);
    if (outer != stacks.end())
        EXPECT_EQ(outer->second.total(), 0u);
    EXPECT_EQ(profiler.unboundSpans(), 0u);
}

// ----------------------------------------------------------------
// The differential table — the paper's vanishing-overhead headline.
// ----------------------------------------------------------------

TEST(Differential, Cm5OverheadVanishesOnCr)
{
    prof::ProfConfig pc;
    pc.observe = false;
    prof::ProfConfig bc = pc;
    bc.substrate = Substrate::Cr;
    const auto primary = prof::runProfiled(pc);
    const auto baseline = prof::runProfiled(bc);
    ASSERT_TRUE(primary.result.dataOk);
    ASSERT_TRUE(baseline.result.dataOk);

    const auto diff = prof::differential(pc, primary, bc, baseline);
    ASSERT_EQ(diff.rows.size(), 4u);
    std::map<std::string, std::string> status;
    for (const auto &row : diff.rows)
        status[prof::featureSlug(row.feature)] = row.status;
    EXPECT_EQ(status.at("base_cost"), "unchanged");
    EXPECT_EQ(status.at("buffer_mgmt"), "vanishes");
    EXPECT_EQ(status.at("in_order"), "vanishes");
    EXPECT_EQ(status.at("fault_tol"), "vanishes");
    EXPECT_LT(diff.baselineTotal, diff.primaryTotal);

    const std::string md = diff.markdown();
    EXPECT_NE(md.find("| feature | cm5/xfer | cr/xfer |"),
              std::string::npos);
    EXPECT_NE(md.find("vanishes"), std::string::npos);

    const Json j = diff.toJson();
    ASSERT_NE(j.find("features"), nullptr);
    EXPECT_EQ(j.find("features")->size(), 4u);
    EXPECT_EQ(j.find("primary")->find("substrate")->asString(),
              "cm5");
}

// ----------------------------------------------------------------
// PR 1 design rule, extended: the full profiling kit (lineage hooks
// + span cost observer + trace session) never perturbs a count.
// ----------------------------------------------------------------

TEST(ProfOverhead, CountsAreBitIdenticalWithProfilingOn)
{
    for (const char *protocol : {"single", "xfer", "stream"}) {
        prof::ProfConfig cfg;
        cfg.protocol = protocol;
        cfg.observe = false;
        const auto off = prof::runProfiled(cfg);
        cfg.observe = true;
        const auto on = prof::runProfiled(cfg);
        // Full-structure equality, every (feature, row, opclass)
        // bucket — same check as the PR 1 tracer regression.
        EXPECT_TRUE(off.result.counts.src == on.result.counts.src)
            << protocol;
        EXPECT_TRUE(off.result.counts.dst == on.result.counts.dst)
            << protocol;
        EXPECT_GT(on.packetsTracked, 0u);
        EXPECT_EQ(off.packetsTracked, 0u);
    }
}

// ----------------------------------------------------------------
// Histogram percentile / render edge cases (satellite coverage).
// ----------------------------------------------------------------

TEST(HistogramEdge, EmptyHistogramRendersAndReportsZero)
{
    Histogram h(0, 10, 8);
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.percentile(99), 0.0);
    const std::string art = h.renderAscii();
    EXPECT_EQ(art.front(), '[');
    EXPECT_EQ(art.back(), ']');
    EXPECT_EQ(art.find('@'), std::string::npos);
}

TEST(HistogramEdge, SingleSampleIsEveryPercentile)
{
    Histogram h(0, 10, 10);
    h.sample(4.0);
    // One sample: every percentile lands in its bin ([4, 5)).
    for (const double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_GE(h.percentile(p), 4.0) << p;
        EXPECT_LE(h.percentile(p), 5.0) << p;
    }
    const std::string art = h.renderAscii();
    EXPECT_EQ(std::count(art.begin(), art.end(), '@'), 1);
}

TEST(HistogramEdge, AllEqualSamplesCollapseThePercentiles)
{
    Histogram h(0, 10, 10);
    for (int i = 0; i < 1000; ++i)
        h.sample(7.0);
    EXPECT_EQ(h.percentile(1), h.percentile(99));
    EXPECT_GE(h.percentile(50), 7.0);
    EXPECT_LE(h.percentile(50), 8.0);
}

// ----------------------------------------------------------------
// CLI flag parsing: prof::parseArgs composes with obs::parseArgs.
// ----------------------------------------------------------------

TEST(ProfCli, StripsItsFlagsAndComposesWithObs)
{
    std::vector<std::string> args = {
        "msgsim-prof",          "--trace-out=t.json",
        "--protocol=stream",    "--baseline=cr",
        "--words=128",          "--group-ack=4",
        "--flame-out=f.folded", "leftover",
        "--json-out=r.json"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    int argc = static_cast<int>(argv.size());

    const auto obsOpts = obs::parseArgs(argc, argv.data());
    EXPECT_EQ(obsOpts.traceOut, "t.json");

    const auto cli = prof::parseArgs(argc, argv.data());
    EXPECT_EQ(cli.protocol, "stream");
    EXPECT_EQ(cli.baseline, "cr");
    EXPECT_EQ(cli.words, 128u);
    EXPECT_EQ(cli.groupAck, 4);
    EXPECT_EQ(cli.flameOut, "f.folded");
    EXPECT_EQ(cli.jsonOut, "r.json");
    EXPECT_EQ(cli.substrate, "cm5"); // default survives

    // Only the program name and the positional argument remain.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "msgsim-prof");
    EXPECT_STREQ(argv[1], "leftover");
}

TEST(ProfCli, SubstrateNamesRoundTrip)
{
    Substrate s = Substrate::Cm5;
    EXPECT_TRUE(parseSubstrate("cr", s));
    EXPECT_EQ(s, Substrate::Cr);
    EXPECT_TRUE(parseSubstrate("cm5", s));
    EXPECT_EQ(s, Substrate::Cm5);
    EXPECT_FALSE(parseSubstrate("tcp", s));
}

} // namespace
} // namespace msgsim
