/**
 * @file
 * The text formatting every exporter and report shares, so numbers
 * and names come out byte-stable and identical across artifacts.
 */

#ifndef VIRTSIM_SIM_FORMAT_HH
#define VIRTSIM_SIM_FORMAT_HH

#include <string>

namespace virtsim {

/** s escaped for a JSON string literal: quote, backslash, and
 *  control characters (\n, \t, \u00XX). */
std::string jsonEscape(const std::string &s);

/** value in fixed notation with `digits` decimals ("%.*f"). */
std::string formatFixed(double value, int digits);

} // namespace virtsim

#endif // VIRTSIM_SIM_FORMAT_HH
