#include "prof/prof_cli.hh"

#include <cstring>

#include "core/parse_number.hh"

namespace msgsim::prof
{

CliOptions
parseArgs(int &argc, char **argv)
{
    CliOptions opts;
    auto match = [](const char *arg, const char *flag,
                    const char **value) {
        const std::size_t n = std::strlen(flag);
        if (std::strncmp(arg, flag, n) != 0)
            return false;
        *value = arg + n;
        return true;
    };
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        auto number = [&](const char *value, auto &field) {
            if (!parseNumber(value, field) && opts.badNumber.empty())
                opts.badNumber = argv[i];
        };
        if (match(argv[i], "--protocol=", &v)) {
            opts.protocol = v;
        } else if (match(argv[i], "--substrate=", &v)) {
            opts.substrate = v;
        } else if (std::strcmp(argv[i], "--baseline") == 0) {
            opts.baselineBare = true;
        } else if (match(argv[i], "--baseline=", &v)) {
            opts.baseline = v;
        } else if (match(argv[i], "--words=", &v)) {
            number(v, opts.words);
        } else if (match(argv[i], "--nodes=", &v)) {
            number(v, opts.nodes);
        } else if (match(argv[i], "--group-ack=", &v)) {
            number(v, opts.groupAck);
        } else if (match(argv[i], "--flame-out=", &v)) {
            opts.flameOut = v;
        } else if (match(argv[i], "--waterfall-out=", &v)) {
            opts.waterfallOut = v;
        } else if (match(argv[i], "--json-out=", &v)) {
            opts.jsonOut = v;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return opts;
}

} // namespace msgsim::prof
