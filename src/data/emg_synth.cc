#include "data/emg_synth.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/simd.hh"

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
    // fix how many in-burst gaussians follow, then skips those. A
    // rendered one draws each burst's gaussians into the segment's
    // storage in one block, evaluates the burst's cosines a stack
    // block at a time, and lets the carrier's block overwrite the
    // segment last.
    std::vector<double> envelope(materialize ? length : 0,
                                 config.restingNoise);
    std::vector<double> segment(envelope.size());
    const auto time = [&](size_t i) {
        return static_cast<double>(i) / sample_rate_hz;
    };
    constexpr size_t block = 128;
    double hann[block];
    for (size_t b = 0; b < bursts; ++b) {
        const double jitter = 1.0 + 0.15 * rng.gaussian();
        const double len = burst_len * std::fabs(jitter);
        const double start =
            rng.uniform(0.05 * duration,
                        std::max(0.05 * duration + 1e-6,
                                 0.95 * duration - len));
        // Sample times rise with i, so the burst is one index range.
        size_t begin = 0;
        while (begin < length && time(begin) < start)
            ++begin;
        size_t end = begin;
        while (end < length && !(time(end) > start + len))
            ++end;
        if (!materialize) {
            rng.skipGaussians(end - begin);
            continue;
        }
        rng.gaussians(segment.data() + begin, end - begin);
        for (size_t at = begin; at < end; at += block) {
            const size_t count = std::min(block, end - at);
            for (size_t j = 0; j < count; ++j) {
                const double phase = (time(at + j) - start) / len;
                hann[j] = 2.0 * std::numbers::pi * phase;
            }
            simdCos(hann, hann, count);
            for (size_t j = 0; j < count; ++j) {
                envelope[at + j] += amplitude * (0.5 * (1.0 - hann[j])) *
                                    (1.0 + 0.1 * segment[at + j]);
            }
        }
    }

    if (materialize)
        rng.gaussians(segment.data(), length);
    else
        rng.skipGaussians(length);
    for (size_t i = 0; i < segment.size(); ++i)
        segment[i] = envelope[i] * segment[i];
    return segment;
}

} // namespace xpro
