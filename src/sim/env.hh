/**
 * @file
 * Validated environment-variable parsing.
 *
 * Every numeric VIRTSIM_* knob goes through one parser with one
 * failure mode: a clear fatal() naming the variable and the offending
 * value. Silent fallbacks are banned — a typo'd VIRTSIM_TRACE_CAPACITY
 * that quietly kept the default once cost a day of confusion over a
 * "lossy" trace.
 */

#ifndef VIRTSIM_SIM_ENV_HH
#define VIRTSIM_SIM_ENV_HH

#include <cstdint>
#include <optional>

namespace virtsim {

/**
 * Parse environment variable `name` as a strictly positive integer.
 * @return nullopt when unset or empty; the value otherwise.
 *
 * fatal()s (user error, exit(1)) on anything else: non-numeric text,
 * trailing garbage ("4k"), zero, negative values, or values that
 * overflow either uint64 or the caller's `max`.
 */
std::optional<std::uint64_t> envPositiveCount(const char *name,
                                              std::uint64_t max =
                                                  UINT64_MAX);

} // namespace virtsim

#endif // VIRTSIM_SIM_ENV_HH
