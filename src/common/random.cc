#include "common/random.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

namespace
{

/** splitmix64, used to expand the single seed into the full state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : _state)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(_state[1] * 5, 7) * 9;
    const uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 top bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    xproAssert(n > 0, "below() requires n > 0");
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = ~uint64_t{0} - ~uint64_t{0} % n;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    xproAssert(lo <= hi, "range() requires lo <= hi");
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(below(span));
}

double
Rng::gaussian()
{
    double value;
    gaussians(&value, 1);
    return value;
}

void
Rng::gaussians(double *out, size_t n)
{
    size_t i = 0;
    if (n > 0 && _hasCachedGaussian) {
        _hasCachedGaussian = false;
        out[i++] = _cachedGaussian;
    }
    // Box-Muller a block of pairs at a time: each pair draws u1 > 0,
    // then u2, in stream order; then one log, sqrt and sin/cos pass
    // over the block gives radius * cos, then radius * sin, per pair.
    constexpr size_t block = 64;
    double radius[block], angle[block], sines[block], cosines[block];
    while (i < n) {
        const size_t pairs = std::min(block, (n - i + 1) / 2);
        for (size_t p = 0; p < pairs; ++p) {
            double u1;
            do {
                u1 = uniform();
            } while (u1 <= 0.0);
            radius[p] = u1;
            angle[p] = 2.0 * std::numbers::pi * uniform();
        }
        simdLog(radius, radius, pairs);
        for (size_t p = 0; p < pairs; ++p)
            radius[p] = std::sqrt(-2.0 * radius[p]);
        simdSinCos(sines, cosines, angle, pairs);
        for (size_t p = 0; p < pairs; ++p) {
            out[i++] = radius[p] * cosines[p];
            if (i == n) {
                // An odd count ends on a pair's first half.
                _cachedGaussian = radius[p] * sines[p];
                _hasCachedGaussian = true;
                break;
            }
            out[i++] = radius[p] * sines[p];
        }
    }
}

void
Rng::skipGaussians(size_t k)
{
    if (k > 0 && _hasCachedGaussian) {
        _hasCachedGaussian = false;
        --k;
    }
    for (; k >= 2; k -= 2) {
        // gaussian()'s draws for one pair: u1 > 0, then u2.
        while (uniform() <= 0.0) {
        }
        next();
    }
    if (k == 1)
        gaussian();
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::vector<size_t>
Rng::sampleWithoutReplacement(size_t n, size_t k)
{
    xproAssert(k <= n, "cannot draw %zu items from a pool of %zu", k, n);
    std::vector<size_t> pool(n);
    for (size_t i = 0; i < n; ++i)
        pool[i] = i;
    // Partial Fisher-Yates: after k swaps the first k slots are the
    // sample.
    for (size_t i = 0; i < k; ++i) {
        const size_t j = i + static_cast<size_t>(below(n - i));
        std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
}

} // namespace xpro
