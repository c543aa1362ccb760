/**
 * @file
 * msgsim-tele: run one canonical telemetry scenario with a sampler
 * attached and export the time-series views.
 *
 *     msgsim-tele --scenario=incast --substrate=cm5 \
 *         --heatmap-out=heat.txt --report-out=report.txt
 *
 * Outputs: the scenario summary table (stdout / --json-out), the
 * time-binned congestion heatmap (--heatmap-out, ASCII + JSON
 * alongside), the bottleneck attribution report (--report-out), and
 * a Perfetto/Chrome counter-track timeline (--timeline-out).  With
 * --trace-out (observability layer) the counter tracks are merged
 * onto the live span timeline instead of a counters-only file.
 * Everything derived from the sampler is bit-deterministic: same
 * scenario, same period, same bytes.
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
#include "tele/heatmap.hh"
#include "tele/report.hh"
#include "tele/tele_run.hh"
#include "traffic/engine.hh"

namespace
{

using namespace msgsim;

struct Options
{
    std::string scenario = "incast";
    std::string substrate = "cm5";
    std::uint64_t period = 16;
    std::uint64_t ring = 4096;
    std::uint64_t windowTicks = 0;
    double threshold = 0.9;
    std::uint64_t maxBins = 64;
    bool quiet = false;
    std::string timelineOut;
    std::string heatmapOut;
    std::string reportOut;
    std::string jsonOut;
    std::string benchOut;
    std::string benchLabel = "tele";
};

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: msgsim-tele [options]\n"
        "\n"
        "  --scenario=<s>      incast | wire                 [incast]\n"
        "  --substrate=<s>     cm5 | cr | rdma | nicam       [cm5]\n"
        "  --period=<t>        sample period in ticks        [16]\n"
        "  --ring=<n>          retained samples per track    [4096]\n"
        "  --window-ticks=<t>  report window (0 = auto)      [0]\n"
        "  --threshold=<f>     report saturation threshold   [0.9]\n"
        "  --max-bins=<n>      heatmap bins                  [64]\n"
        "  --timeline-out=<f>  write counter tracks as a Chrome\n"
        "                      trace-event timeline (ph:\"C\")\n"
        "  --heatmap-out=<f>   write the ASCII heatmap (plus <f>.json)\n"
        "  --report-out=<f>    write the bottleneck report (plus\n"
        "                      <f>.json)\n"
        "  --json-out=<f>      write the summary table as JSON\n"
        "  --bench-out=<f>     append wall-clock entry to the perf\n"
        "                      trajectory file\n"
        "  --bench-label=<l>   trajectory entry label  [tele]\n"
        "  --quiet             suppress the stdout report\n"
        "  --trace-out=<file>, --metrics-out=<file>  (observability;\n"
        "                      counter tracks merge onto --trace-out)\n",
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
        } else if (eat(arg, "--scenario=", opt.scenario) ||
                   eat(arg, "--substrate=", opt.substrate) ||
                   eat(arg, "--timeline-out=", opt.timelineOut) ||
                   eat(arg, "--heatmap-out=", opt.heatmapOut) ||
                   eat(arg, "--report-out=", opt.reportOut) ||
                   eat(arg, "--json-out=", opt.jsonOut) ||
                   eat(arg, "--bench-out=", opt.benchOut) ||
                   eat(arg, "--bench-label=", opt.benchLabel)) {
        } else if (eat(arg, "--period=", v)) {
            numberOk = parseNumber(v, opt.period);
        } else if (eat(arg, "--ring=", v)) {
            numberOk = parseNumber(v, opt.ring);
        } else if (eat(arg, "--window-ticks=", v)) {
            numberOk = parseNumber(v, opt.windowTicks);
        } else if (eat(arg, "--threshold=", v)) {
            numberOk = parseNumber(v, opt.threshold);
        } else if (eat(arg, "--max-bins=", v)) {
            numberOk = parseNumber(v, opt.maxBins);
        } else {
            std::fprintf(stderr, "msgsim-tele: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
        if (!numberOk) {
            std::fprintf(stderr, "msgsim-tele: bad number in '%s'\n",
                         arg.c_str());
            usage(stderr);
            return false;
        }
    }
    if (opt.period == 0) {
        std::fprintf(stderr, "msgsim-tele: --period must be > 0\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    auto obsOpts = obs::parseArgs(argc, argv);

    Options opt;
    if (!parse(argc, argv, opt))
        return 2;
    if (!tele::knownScenario(opt.scenario)) {
        std::fprintf(stderr, "msgsim-tele: unknown scenario '%s'\n",
                     opt.scenario.c_str());
        return 2;
    }
    Substrate substrate;
    if (!parseSubstrate(opt.substrate, substrate)) {
        std::fprintf(stderr, "msgsim-tele: unknown substrate '%s'\n",
                     opt.substrate.c_str());
        return 2;
    }

    // The sampler must outlive the obs scope: counter records written
    // into the scope's trace session point into the sampler's track
    // names, and the scope writes its file on destruction.
    tele::TeleSession sampler(
        {static_cast<Tick>(opt.period), opt.ring});
    obs::Scope scope(obsOpts);

    tele::ScenarioOptions sopt;
    sopt.scenario = opt.scenario;
    sopt.substrate = substrate;
    sopt.period = static_cast<Tick>(opt.period);
    sopt.ringCapacity = opt.ring;
    sopt.windowTicks = static_cast<Tick>(opt.windowTicks);
    sopt.threshold = opt.threshold;
    sopt.trace = scope.session();

    const auto w0 = std::chrono::steady_clock::now();
    const tele::ScenarioResult res = tele::runScenario(sopt, &sampler);
    const auto w1 = std::chrono::steady_clock::now();
    const double wallUs =
        std::chrono::duration<double, std::micro>(w1 - w0).count();

    const tele::BottleneckReport report =
        tele::buildReport(sampler, sopt.windowTicks, sopt.threshold);

    lab::ResultTable t;
    t.name = "tele";
    t.title = "Telemetry run: " + opt.scenario + " on " +
              opt.substrate;
    t.columns = {"scenario",   "substrate", "period", "ticks",
                 "completions", "backpressure", "tracks",
                 "snapshots",  "peak%",     "top bottleneck",
                 "digest",     "ok"};
    t.addRow({lab::Cell::text(opt.scenario),
              lab::Cell::text(opt.substrate),
              lab::Cell::integer(opt.period),
              lab::Cell::integer(res.elapsed),
              lab::Cell::integer(res.completions),
              lab::Cell::integer(res.backpressure),
              lab::Cell::integer(res.trackCount),
              lab::Cell::integer(res.snapshots),
              lab::Cell::real(100.0 * res.peakFraction),
              lab::Cell::text(res.topResource.empty()
                                  ? "-"
                                  : res.topResource),
              lab::Cell::text(res.digest),
              lab::Cell::text(res.ok ? "ok" : "FAIL")});
    if (!opt.quiet) {
        std::fputs(t.markdown().c_str(), stdout);
        std::fputs("\n", stdout);
        std::fputs(report.renderText().c_str(), stdout);
    }

    if (!opt.jsonOut.empty())
        lab::Reporter::writeFile(opt.jsonOut, t.jsonText());

    if (!opt.heatmapOut.empty()) {
        const tele::Heatmap hm = tele::buildHeatmap(
            sampler, static_cast<std::size_t>(opt.maxBins));
        lab::Reporter::writeFile(opt.heatmapOut, hm.renderAscii());
        lab::Reporter::writeFile(opt.heatmapOut + ".json",
                                 hm.toJson().dump(2) + "\n");
    }

    if (!opt.reportOut.empty()) {
        lab::Reporter::writeFile(opt.reportOut, report.renderText());
        lab::Reporter::writeFile(opt.reportOut + ".json",
                                 report.toJson().dump(2) + "\n");
    }

    if (!opt.timelineOut.empty()) {
        // Counters-only timeline: replay every retained sample as a
        // ph:"C" record with its explicit simulated tick.
        TraceSession ts;
        sampler.exportCounters(ts);
        if (!ts.writeChromeTrace(opt.timelineOut))
            std::fprintf(stderr,
                         "msgsim-tele: cannot write '%s'\n",
                         opt.timelineOut.c_str());
    }
    if (scope.tracing())
        sampler.exportCounters(*scope.session());

    if (!opt.benchOut.empty()) {
        lab::ResultTable bt;
        bt.name = "W-tele";
        bt.title = "Telemetry sampling throughput: samples/s "
                   "(host wall-clock)";
        bt.columns = {"scenario", "samples", "wall us", "samples/s"};
        const double sps =
            wallUs > 0 ? 1e6 * static_cast<double>(
                                   sampler.samplesObserved()) /
                             wallUs
                       : 0;
        bt.addRow({lab::Cell::text(opt.scenario + "/" +
                                   opt.substrate),
                   lab::Cell::integer(sampler.samplesObserved()),
                   lab::Cell::real(wallUs), lab::Cell::real(sps)});
        bt.notes = {"Measures this repository's simulator with the "
                    "sampler attached, not the modeled machine; "
                    "feeds the repo-root BENCH_throughput.json perf "
                    "trajectory."};
        lab::Reporter::appendBench(opt.benchOut, bt, opt.benchLabel);
    }

    if (!res.ok)
        std::fprintf(stderr,
                     "msgsim-tele: scenario FAILED verification\n");
    return res.ok ? 0 : 1;
}
