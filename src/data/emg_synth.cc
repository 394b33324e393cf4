#include "data/emg_synth.hh"

#include <cmath>
#include <numbers>

namespace xpro
{

std::vector<double>
synthesizeEmgSegment(size_t length, double sample_rate_hz,
                     bool positive, const EmgSynthConfig &config,
                     Rng &rng, bool materialize)
{
    const size_t bursts = positive ? config.burstsClassPositive
                                   : config.burstsClassNegative;
    const double burst_len = positive ? config.burstLenPositiveSec
                                      : config.burstLenNegativeSec;
    const double amplitude = positive ? config.amplitudePositive
                                      : config.amplitudeNegative;
    const double duration =
        static_cast<double>(length) / sample_rate_hz;

    // Envelope: resting tone plus Hann-shaped activation bursts. A
    // skipped segment still draws each burst's jitter and start, which
    // fix how many in-burst gaussians follow, then skips those.
    std::vector<double> envelope(materialize ? length : 0,
                                 config.restingNoise);
    for (size_t b = 0; b < bursts; ++b) {
        const double jitter = 1.0 + 0.15 * rng.gaussian();
        const double len = burst_len * std::fabs(jitter);
        const double start =
            rng.uniform(0.05 * duration,
                        std::max(0.05 * duration + 1e-6,
                                 0.95 * duration - len));
        size_t in_burst = 0;
        for (size_t i = 0; i < length; ++i) {
            const double t = static_cast<double>(i) / sample_rate_hz;
            if (t < start || t > start + len)
                continue;
            if (!materialize) {
                ++in_burst;
                continue;
            }
            const double phase = (t - start) / len;
            const double hann =
                0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * phase));
            envelope[i] += amplitude * hann * (1.0 + 0.1 * rng.gaussian());
        }
        rng.skipGaussians(in_burst);
    }

    std::vector<double> segment(envelope.size());
    if (!materialize)
        rng.skipGaussians(length);
    for (size_t i = 0; i < segment.size(); ++i)
        segment[i] = envelope[i] * rng.gaussian();
    return segment;
}

} // namespace xpro
