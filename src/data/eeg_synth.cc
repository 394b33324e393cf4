#include "data/eeg_synth.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hh"

namespace xpro
{

namespace
{

/** One rhythmic background band. */
struct Band
{
    double loHz;
    double hiHz;
    double amplitude;
};

} // namespace

std::vector<double>
synthesizeEegSegment(size_t length, double sample_rate_hz,
                     bool positive, const EegSynthConfig &config,
                     Rng &rng, bool materialize)
{
    const Band bands[] = {
        {1.0, 4.0, 0.8},   // delta
        {4.0, 8.0, 0.5},   // theta
        {8.0, 13.0, 0.6},  // alpha
        {13.0, 30.0, 0.3}, // beta
    };

    // Each band contributes a few sinusoids at random frequencies
    // and phases; alpha power differs across classes.
    struct Component
    {
        double freq;
        double phase;
        double amp;
    };
    std::vector<Component> components;
    for (const Band &band : bands) {
        const bool is_alpha = band.loHz == 8.0;
        const double scale =
            (positive && is_alpha) ? config.positiveAlphaScale : 1.0;
        for (int k = 0; k < 3; ++k) {
            components.push_back({
                rng.uniform(band.loHz, band.hiHz),
                rng.uniform(0.0, 2.0 * std::numbers::pi),
                band.amplitude * scale * rng.uniform(0.5, 1.0),
            });
        }
    }

    // A skipped segment draws its per-sample noise in one skip and
    // renders no sines or spikes. A rendered one draws its noise into
    // its own storage in one block, then sums each sample's component
    // sines in component order before its noise. The sines are
    // evaluated a block of samples (the whole segment in every paper
    // case) per component and call, from stack buffers.
    std::vector<double> segment(materialize ? length : 0);
    if (materialize)
        rng.gaussians(segment.data(), length);
    else
        rng.skipGaussians(length);
    constexpr size_t block = 128;
    double times[block];
    double sines[block];
    double sums[block];
    for (size_t at = 0; at < segment.size(); at += block) {
        const size_t count = std::min(block, segment.size() - at);
        for (size_t j = 0; j < count; ++j) {
            times[j] = static_cast<double>(at + j) / sample_rate_hz;
            sums[j] = 0.0;
        }
        for (const Component &c : components) {
            for (size_t j = 0; j < count; ++j)
                sines[j] =
                    2.0 * std::numbers::pi * c.freq * times[j] + c.phase;
            simdSin(sines, sines, count);
            for (size_t j = 0; j < count; ++j)
                sums[j] += c.amp * sines[j];
        }
        for (size_t j = 0; j < count; ++j)
            segment[at + j] =
                sums[j] + config.noiseLevel * segment[at + j];
    }

    if (positive) {
        // Inject biphasic spike transients at random positions away
        // from the edges.
        const double duration =
            static_cast<double>(length) / sample_rate_hz;
        for (size_t s = 0; s < config.spikesPerPositive; ++s) {
            const double center = duration * rng.uniform(0.15, 0.85);
            const double polarity = rng.chance(0.5) ? 1.0 : -1.0;
            for (size_t i = 0; i < segment.size(); ++i) {
                const double t =
                    static_cast<double>(i) / sample_rate_hz;
                const double z =
                    (t - center) / config.spikeWidthSec;
                // Biphasic: derivative-of-Gaussian shape.
                segment[i] += polarity * config.spikeAmplitude *
                              (-z) * std::exp(-0.5 * z * z);
            }
        }
    }
    return segment;
}

} // namespace xpro
