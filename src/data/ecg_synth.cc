#include "data/ecg_synth.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hh"

namespace xpro
{

namespace
{

/** One Gaussian wave component of a PQRST complex. */
struct WaveComponent
{
    /** Offset from the R peak in seconds. */
    double offsetSec;
    /** Peak amplitude in millivolts. */
    double amplitude;
    /** Width (standard deviation) in seconds. */
    double widthSec;
};

} // namespace

std::vector<double>
synthesizeEcgSegment(size_t length, double sample_rate_hz,
                     bool abnormal, const EcgSynthConfig &config,
                     Rng &rng, bool materialize)
{
    // Canonical PQRST morphology (amplitudes in mV, times in s).
    WaveComponent waves[] = {
        {-0.20, 0.12, 0.025}, // P
        {-0.035, -0.16, 0.010}, // Q
        {0.0, 1.10, 0.011},   // R
        {0.045, -0.22, 0.012}, // S
        {0.28, 0.30, 0.045},  // T
    };

    if (abnormal) {
        for (WaveComponent &wave : waves) {
            // Widen the QRS complex (Q, R, S).
            if (std::fabs(wave.offsetSec) < 0.1)
                wave.widthSec *= config.abnormalQrsWidening;
        }
        waves[2].amplitude *= config.abnormalRScale;
        waves[4].amplitude *= config.abnormalTScale;
        // Abnormal beats also show a displaced T wave.
        waves[4].offsetSec += 0.05;
    }

    // Small per-segment physiological variability.
    const double amplitude_jitter = 1.0 + 0.08 * rng.gaussian();
    const double width_jitter = 1.0 + 0.05 * rng.gaussian();

    const double duration =
        static_cast<double>(length) / sample_rate_hz;
    // Place the R peak randomly inside the middle half so features
    // cannot key on a fixed sample position.
    const double r_time =
        duration * (0.35 + 0.3 * rng.uniform());

    const double wander_phase =
        rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double wander_freq = rng.uniform(0.15, 0.45);

    // A skipped segment draws its per-sample noise in one skip. A
    // rendered one draws it into its own storage in one block, then
    // sums each sample over its noise, with the baseline wander's
    // sines evaluated a stack block at a time.
    std::vector<double> segment(materialize ? length : 0);
    if (materialize)
        rng.gaussians(segment.data(), length);
    else
        rng.skipGaussians(length);
    constexpr size_t block = 128;
    double wander[block];
    for (size_t at = 0; at < segment.size(); at += block) {
        const size_t count = std::min(block, segment.size() - at);
        for (size_t j = 0; j < count; ++j) {
            const double t = static_cast<double>(at + j) / sample_rate_hz;
            wander[j] =
                2.0 * std::numbers::pi * wander_freq * t + wander_phase;
        }
        simdSin(wander, wander, count);
        for (size_t j = 0; j < count; ++j) {
            const double t = static_cast<double>(at + j) / sample_rate_hz;
            double value = 0.0;
            for (const WaveComponent &wave : waves) {
                const double center = r_time + wave.offsetSec;
                const double width = wave.widthSec * width_jitter;
                const double z = (t - center) / width;
                value += wave.amplitude * amplitude_jitter *
                         std::exp(-0.5 * z * z);
            }
            value += config.baselineWander * wander[j];
            value += config.noiseLevel * segment[at + j];
            segment[at + j] = value;
        }
    }
    return segment;
}

} // namespace xpro
