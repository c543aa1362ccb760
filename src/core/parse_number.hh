/**
 * @file
 * Checked numeric parsing for command-line flags.
 *
 * The msgsim-traffic, -wire, -tele, -check, -prof and -selfprof CLIs
 * parse their numeric flags through parseNumber(), so a malformed
 * value is a usage error (message + exit 2) instead of an abort from
 * an uncaught std::stoul exception or a silent 0 from atoi/strtoul.
 */

#ifndef MSGSIM_CORE_PARSE_NUMBER_HH
#define MSGSIM_CORE_PARSE_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace msgsim
{

/**
 * Parse all of @p v as a decimal number of @p out's type.  False,
 * leaving @p out untouched, on an empty value, leading space,
 * trailing junk, a sign on an integer field, overflow or a non-finite
 * real.
 */
template <typename T>
bool
parseNumber(const std::string &v, T &out)
{
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double x = std::strtod(v.c_str(), &end);
        if (errno != 0 || *end != '\0' || !std::isfinite(x))
            return false;
        out = x;
    } else {
        if (!std::isdigit(static_cast<unsigned char>(v[0])))
            return false;
        const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
        if (errno != 0 || *end != '\0' ||
            x > static_cast<unsigned long long>(
                    std::numeric_limits<T>::max()))
            return false;
        out = static_cast<T>(x);
    }
    return true;
}

} // namespace msgsim

#endif // MSGSIM_CORE_PARSE_NUMBER_HH
