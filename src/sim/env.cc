#include "sim/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "sim/log.hh"

namespace virtsim {

std::optional<std::uint64_t>
envPositiveCount(const char *name, std::uint64_t max)
{
    const char *p = std::getenv(name);
    if (p == nullptr || *p == '\0')
        return std::nullopt;
    // strtoull silently wraps negatives ("-3" parses as a huge
    // positive), so reject a sign up front.
    const char *digits = p;
    while (std::isspace(static_cast<unsigned char>(*digits)))
        ++digits;
    if (*digits == '-' || *digits == '+') {
        fatal(name, " must be a positive integer, got \"", p, "\"");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || *end != '\0')
        fatal(name, " must be a positive integer, got \"", p, "\"");
    if (errno == ERANGE || v > max) {
        fatal(name, " out of range (max ", max, "), got \"", p,
              "\"");
    }
    if (v == 0)
        fatal(name, " must be positive, got \"", p, "\"");
    return static_cast<std::uint64_t>(v);
}

} // namespace virtsim
