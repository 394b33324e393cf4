/**
 * @file
 * Synthetic EEG segment generator.
 *
 * Background activity is a mixture of band-limited oscillations
 * (delta, theta, alpha, beta) with random phases plus 1/f-like
 * noise. The two classes mimic the spike-discrimination task of the
 * Quiroga neural data used for the paper's E1/E2 cases: the positive
 * class injects transient spike events (sharp biphasic deflections),
 * and the class contrast can be softened to model the "difficult"
 * variants.
 */

#ifndef XPRO_DATA_EEG_SYNTH_HH
#define XPRO_DATA_EEG_SYNTH_HH

#include "common/random.hh"
#include "data/biosignal.hh"

namespace xpro
{

/** Tunable parameters of the synthetic EEG generator. */
struct EegSynthConfig
{
    /** Number of spike transients in a positive segment. */
    size_t spikesPerPositive = 2;
    /** Spike peak amplitude relative to background RMS. */
    double spikeAmplitude = 2.6;
    /** Spike half-width in seconds. */
    double spikeWidthSec = 0.012;
    /** Alpha-band power scale of the positive class. */
    double positiveAlphaScale = 1.5;
    /** Additive white noise level. */
    double noiseLevel = 0.25;
};

/**
 * Generate one EEG segment.
 *
 * @param length Samples per segment.
 * @param sample_rate_hz Rendering rate.
 * @param positive True for the spike-bearing (label +1) class.
 * @param config Generator tuning.
 * @param rng Randomness source.
 * @param materialize False skips the rendering: @p rng advances
 *        exactly as for a rendered segment (one draw sequence) and
 *        the result is empty.
 */
std::vector<double> synthesizeEegSegment(size_t length,
                                         double sample_rate_hz,
                                         bool positive,
                                         const EegSynthConfig &config,
                                         Rng &rng,
                                         bool materialize = true);

} // namespace xpro

#endif // XPRO_DATA_EEG_SYNTH_HH
