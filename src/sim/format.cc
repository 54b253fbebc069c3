#include "sim/format.hh"

#include <cstdio>

namespace virtsim {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatFixed(double value, int digits)
{
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    if (n < static_cast<int>(sizeof(buf)))
        return buf;
    // Too long for the stack buffer (a huge value): size it exactly.
    std::string out(static_cast<std::size_t>(n), '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", digits, value);
    return out;
}

} // namespace virtsim
