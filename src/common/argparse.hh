/**
 * @file
 * Small command-line value parsers shared by the tools. Each parser
 * validates the whole string and raises FatalError (via fatal())
 * with the offending flag name on bad input, so front-ends get
 * uniform "--flag: ... " diagnostics and tests can cover the
 * validation without spawning a process.
 */

#ifndef XPRO_COMMON_ARGPARSE_HH
#define XPRO_COMMON_ARGPARSE_HH

#include <cstdint>
#include <string>

namespace xpro
{

/**
 * Strictly positive integer capped at @p max ("--fleet 0" and "-3"
 * are fatal). Rejects values that would overflow downstream
 * arithmetic — including inputs so large that strtoll itself
 * saturates (ERANGE), which a plain strtoll parse would silently
 * accept as LLONG_MAX. Every size-like CLI flag that multiplies into
 * buffer sizes or loop bounds must come through here.
 */
size_t parseBoundedArg(const std::string &value, const char *what,
                       size_t max);

/** Non-negative integer ("--ml-workers 0" means auto-detect). */
size_t parseCountArg(const std::string &value, const char *what);

/** Probability in [0, 1) (bit error rates). */
double parseProbabilityArg(const std::string &value,
                           const char *what);

/** Non-negative 64-bit RNG seed. */
uint64_t parseSeedArg(const std::string &value, const char *what);

/** Strictly positive real ("--repartition-period 0" is fatal). */
double parsePositiveRealArg(const std::string &value,
                            const char *what);

/** Non-negative real ("--hysteresis -0.1" is fatal). */
double parseNonNegativeRealArg(const std::string &value,
                               const char *what);

} // namespace xpro

#endif // XPRO_COMMON_ARGPARSE_HH
