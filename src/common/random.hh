/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the reproduction (synthetic biosignal
 * generators, random-subspace feature sampling, train/test splits)
 * draw from explicitly seeded Rng instances so that every experiment
 * is reproducible run-to-run.
 */

#ifndef XPRO_COMMON_RANDOM_HH
#define XPRO_COMMON_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xpro
{

/** A small, fast, seedable random number generator (xoshiro256**). */
class Rng
{
  public:
    /** Construct with the given seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n), n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Standard normal variate (Box-Muller, cached pair). */
    double gaussian();

    /**
     * The next @p n gaussian() values into @p out, bit for bit, a
     * cached half first. Whole blocks of pairs run through the
     * vector log and sin/cos (common/simd), so the values do not
     * depend on the host libm; an odd last value caches its pair's
     * second half.
     */
    void gaussians(double *out, size_t n);

    /**
     * Advance the stream exactly as @p k gaussian() calls would,
     * cached half included. Whole pairs draw their two uniforms
     * without the Box-Muller transform; an odd last call runs it,
     * because its second half stays cached.
     */
    void skipGaussians(size_t k);

    /** Normal variate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            const size_t j = static_cast<size_t>(below(i));
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Draw k distinct indices from [0, n) in random order.
     * Used by the random-subspace feature sampler.
     */
    std::vector<size_t> sampleWithoutReplacement(size_t n, size_t k);

  private:
    uint64_t _state[4];
    bool _hasCachedGaussian = false;
    double _cachedGaussian = 0.0;
};

} // namespace xpro

#endif // XPRO_COMMON_RANDOM_HH
