/**
 * @file
 * Synthetic EMG segment generator.
 *
 * Surface EMG is modeled as zero-mean Gaussian noise amplitude-
 * modulated by muscle-activation burst envelopes. The two classes
 * mimic the hand-movement discrimination of the UCI EMG corpus (M1:
 * lateral vs. spherical grasp, M2: tip vs. hook): they differ in
 * burst count, envelope duration and contraction strength.
 */

#ifndef XPRO_DATA_EMG_SYNTH_HH
#define XPRO_DATA_EMG_SYNTH_HH

#include "common/random.hh"
#include "data/biosignal.hh"

namespace xpro
{

/** Tunable parameters of the synthetic EMG generator. */
struct EmgSynthConfig
{
    /** Bursts in a class +1 segment. */
    size_t burstsClassPositive = 1;
    /** Bursts in a class -1 segment. */
    size_t burstsClassNegative = 2;
    /** Burst envelope duration (seconds) for class +1. */
    double burstLenPositiveSec = 0.28;
    /** Burst envelope duration (seconds) for class -1. */
    double burstLenNegativeSec = 0.12;
    /** Contraction amplitude for class +1. */
    double amplitudePositive = 1.0;
    /** Contraction amplitude for class -1. */
    double amplitudeNegative = 1.4;
    /** Resting-tone noise floor. */
    double restingNoise = 0.06;
};

/**
 * Generate one EMG segment.
 *
 * @param length Samples per segment.
 * @param sample_rate_hz Rendering rate.
 * @param positive True for the label +1 movement class.
 * @param config Generator tuning.
 * @param rng Randomness source.
 * @param materialize False skips the rendering: @p rng advances
 *        exactly as for a rendered segment (one draw sequence) and
 *        the result is empty.
 */
std::vector<double> synthesizeEmgSegment(size_t length,
                                         double sample_rate_hz,
                                         bool positive,
                                         const EmgSynthConfig &config,
                                         Rng &rng,
                                         bool materialize = true);

} // namespace xpro

#endif // XPRO_DATA_EMG_SYNTH_HH
