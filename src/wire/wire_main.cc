/**
 * @file
 * msgsim-wire: run the canonical multi-stream wire workload on any
 * substrate and report the wire-layer bill.
 *
 *     msgsim-wire --substrate=rdma --streams=4 --frames=8
 *
 * The table shows the framing feature's instruction cost next to the
 * classic four, plus the mux counters (window stalls, wire acks, CRC
 * rejects when --corrupt-every is set).  --bench-out appends a
 * framed-bytes/s wall-clock entry to the perf trajectory file
 * (BENCH_throughput.json), labelled --bench-label.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/parse_number.hh"
#include "lab/reporter.hh"
#include "lab/result_table.hh"
#include "sim/obs_cli.hh"
#include "wire/wire_run.hh"

namespace
{

using namespace msgsim;

struct Options
{
    std::string substrate = "cm5";
    std::uint32_t nodes = 4;
    std::uint32_t streams = 4;
    std::uint32_t frames = 8;
    std::uint32_t size = 6;
    std::uint32_t window = 4;
    std::uint32_t groupAck = 4;
    std::uint32_t ackEvery = 1;
    std::uint32_t corruptEvery = 0;
    std::uint64_t seed = 0x5eedf00dULL;
    bool quiet = false;
    std::string jsonOut;
    std::string benchOut;
    std::string benchLabel = "wire";
};

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: msgsim-wire [options]\n"
        "\n"
        "  --substrate=<s>      cm5 | cr | rdma | nicam      [cm5]\n"
        "  --nodes=<n>          machine size                 [4]\n"
        "  --streams=<n>        concurrent logical streams   [4]\n"
        "  --frames=<n>         DATA frames per stream       [8]\n"
        "  --size=<w>           payload words per frame      [6]\n"
        "  --window=<n>         per-stream sliding window    [4]\n"
        "  --group-ack=<n>      underlying hw group ack      [4]\n"
        "  --ack-every=<n>      wire acks per N frames       [1]\n"
        "  --corrupt-every=<n>  CRC-corrupt every Nth DATA\n"
        "                       frame (0 = off)              [0]\n"
        "  --seed=<n>           payload fill seed\n"
        "  --quiet              suppress the stdout table\n"
        "  --json-out=<file>    write the run table as JSON\n"
        "  --bench-out=<file>   append framed-bytes/s entry to the\n"
        "                       perf trajectory file\n"
        "  --bench-label=<l>    trajectory entry label  [wire]\n"
        "  --trace-out=<file>, --metrics-out=<file>  (observability)\n",
        to);
}

bool
eat(const std::string &arg, const char *key, std::string &out)
{
    const std::size_t n = std::strlen(key);
    if (arg.compare(0, n, key) != 0)
        return false;
    out = arg.substr(n);
    return true;
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        bool numberOk = true;
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (eat(arg, "--substrate=", opt.substrate) ||
                   eat(arg, "--json-out=", opt.jsonOut) ||
                   eat(arg, "--bench-out=", opt.benchOut) ||
                   eat(arg, "--bench-label=", opt.benchLabel)) {
        } else if (eat(arg, "--nodes=", v)) {
            numberOk = parseNumber(v, opt.nodes);
        } else if (eat(arg, "--streams=", v)) {
            numberOk = parseNumber(v, opt.streams);
        } else if (eat(arg, "--frames=", v)) {
            numberOk = parseNumber(v, opt.frames);
        } else if (eat(arg, "--size=", v)) {
            numberOk = parseNumber(v, opt.size);
        } else if (eat(arg, "--window=", v)) {
            numberOk = parseNumber(v, opt.window);
        } else if (eat(arg, "--group-ack=", v)) {
            numberOk = parseNumber(v, opt.groupAck);
        } else if (eat(arg, "--ack-every=", v)) {
            numberOk = parseNumber(v, opt.ackEvery);
        } else if (eat(arg, "--corrupt-every=", v)) {
            numberOk = parseNumber(v, opt.corruptEvery);
        } else if (eat(arg, "--seed=", v)) {
            numberOk = parseNumber(v, opt.seed);
        } else {
            std::fprintf(stderr, "msgsim-wire: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
        if (!numberOk) {
            std::fprintf(stderr, "msgsim-wire: bad number in '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    auto obsOpts = obs::parseArgs(argc, argv);
    obs::Scope scope(obsOpts);

    Options opt;
    if (!parse(argc, argv, opt))
        return 2;

    Substrate substrate;
    if (!parseSubstrate(opt.substrate, substrate)) {
        std::fprintf(stderr, "msgsim-wire: unknown substrate '%s'\n",
                     opt.substrate.c_str());
        return 2;
    }
    if (opt.window == 0 || opt.window > 255) {
        std::fprintf(stderr, "msgsim-wire: window must be 1..255\n");
        return 2;
    }

    StackConfig cfg;
    cfg.substrate = substrate;
    cfg.nodes = opt.nodes < 2 ? 2 : opt.nodes;
    Stack stack(cfg);
    scope.bindClock(stack.sim());

    wire::WireWorkload w;
    w.streams = opt.streams;
    w.framesPerStream = opt.frames;
    w.payloadWords = opt.size;
    w.window = static_cast<std::uint8_t>(opt.window);
    w.groupAck = static_cast<int>(opt.groupAck);
    w.ackEvery = opt.ackEvery;
    w.corruptEvery = opt.corruptEvery;
    w.fillSeed = opt.seed;

    const auto w0 = std::chrono::steady_clock::now();
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    const auto w1 = std::chrono::steady_clock::now();
    const double wallUs =
        std::chrono::duration<double, std::micro>(w1 - w0).count();
    scope.collect(stack.sim(), "sim");

    lab::ResultTable t;
    t.name = "wire";
    t.title = "Wire workload: " + std::to_string(opt.streams) +
              " streams x " + std::to_string(opt.frames) +
              " frames on " + opt.substrate;
    t.columns = {"substrate", "streams",  "frames",    "delivered",
                 "wire acks", "retx",     "crc rej",   "stalls",
                 "framed B",  "framing",  "base",      "buffer",
                 "inorder",   "fault",    "total",     "ticks",
                 "ok"};
    const BreakdownCounter &c = res.run.counts;
    t.addRow({lab::Cell::text(opt.substrate),
              lab::Cell::integer(opt.streams),
              lab::Cell::integer(res.wire.dataFrames),
              lab::Cell::integer(res.wire.dataDelivered),
              lab::Cell::integer(res.wire.wireAcks),
              lab::Cell::integer(res.wire.wireRetransmits),
              lab::Cell::integer(res.crcRejects),
              lab::Cell::integer(res.wire.windowStalls),
              lab::Cell::integer(res.wire.framedBytes),
              lab::Cell::integer(c.featureTotal(Feature::Framing)),
              lab::Cell::integer(c.featureTotal(Feature::BaseCost)),
              lab::Cell::integer(c.featureTotal(Feature::BufferMgmt)),
              lab::Cell::integer(
                  c.featureTotal(Feature::InOrderDelivery)),
              lab::Cell::integer(
                  c.featureTotal(Feature::FaultTolerance)),
              lab::Cell::integer(c.paperTotal() +
                                 c.featureTotal(Feature::Framing)),
              lab::Cell::integer(res.run.elapsed),
              lab::Cell::text(res.run.dataOk ? "ok" : "FAIL")});
    t.notes = {"'framing' is the Feature::Framing bill the wire layer "
               "adds on top of the classic four (docs/WIRE.md); "
               "'total' includes it."};
    if (!opt.quiet)
        std::fputs(t.markdown().c_str(), stdout);

    if (!opt.jsonOut.empty())
        lab::Reporter::writeFile(opt.jsonOut, t.jsonText());

    if (!opt.benchOut.empty()) {
        lab::ResultTable bt;
        bt.name = "W-wire";
        bt.title = "Wire-layer throughput: framed bytes/s "
                   "(host wall-clock)";
        bt.columns = {"scenario", "framed bytes", "wall us",
                      "framed bytes/s"};
        const double bps =
            wallUs > 0 ? 1e6 * static_cast<double>(
                                   res.wire.framedBytes) /
                             wallUs
                       : 0;
        bt.addRow({lab::Cell::text(opt.substrate + "/s" +
                                   std::to_string(opt.streams) +
                                   "/f" + std::to_string(opt.frames)),
                   lab::Cell::integer(res.wire.framedBytes),
                   lab::Cell::real(wallUs), lab::Cell::real(bps)});
        bt.notes = {"Measures this repository's simulator, not the "
                    "modeled machine; feeds the repo-root "
                    "BENCH_throughput.json perf trajectory."};
        lab::Reporter::appendBench(opt.benchOut, bt, opt.benchLabel);
    }

    if (!res.run.dataOk)
        std::fprintf(stderr,
                     "msgsim-wire: run FAILED (delivery check)\n");
    return res.run.dataOk ? 0 : 1;
}
