#include "common/argparse.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace xpro
{

namespace
{

/** A whole-string decimal integer; fatal on trailing text and on
 *  values strtoll saturates (ERANGE). */
long long
parseIntegerArg(const std::string &value, const char *what)
{
    errno = 0;
    char *end = nullptr;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (!end || *end != '\0' || end == value.c_str())
        fatal("%s: '%s' is not a number", what, value.c_str());
    if (errno == ERANGE)
        fatal("%s: '%s' overflows", what, value.c_str());
    return parsed;
}

} // namespace

size_t
parseBoundedArg(const std::string &value, const char *what,
                size_t max)
{
    const long long parsed = parseIntegerArg(value, what);
    if (parsed <= 0)
        fatal("%s must be positive, got %lld", what, parsed);
    if (static_cast<unsigned long long>(parsed) > max) {
        fatal("%s must be at most %zu, got %lld", what, max,
              parsed);
    }
    return static_cast<size_t>(parsed);
}

size_t
parseCountArg(const std::string &value, const char *what)
{
    const long long parsed = parseIntegerArg(value, what);
    if (parsed < 0)
        fatal("%s must be non-negative, got %lld", what, parsed);
    return static_cast<size_t>(parsed);
}

double
parseProbabilityArg(const std::string &value, const char *what)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || end == value.c_str())
        fatal("%s: '%s' is not a number", what, value.c_str());
    if (!(parsed >= 0.0 && parsed < 1.0))
        fatal("%s must be in [0, 1), got %g", what, parsed);
    return parsed;
}

double
parsePositiveRealArg(const std::string &value, const char *what)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || end == value.c_str())
        fatal("%s: '%s' is not a number", what, value.c_str());
    if (!(parsed > 0.0))
        fatal("%s must be positive, got %g", what, parsed);
    return parsed;
}

double
parseNonNegativeRealArg(const std::string &value, const char *what)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || end == value.c_str())
        fatal("%s: '%s' is not a number", what, value.c_str());
    if (!(parsed >= 0.0))
        fatal("%s must be non-negative, got %g", what, parsed);
    return parsed;
}

uint64_t
parseSeedArg(const std::string &value, const char *what)
{
    const long long parsed = parseIntegerArg(value, what);
    if (parsed < 0)
        fatal("%s must be non-negative, got %lld", what, parsed);
    return static_cast<uint64_t>(parsed);
}

} // namespace xpro
