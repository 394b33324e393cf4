/**
 * @file
 * Synthetic ECG segment generator.
 *
 * Beats are modeled as sums of Gaussian bumps for the P, Q, R, S and
 * T waves (a discretized simplification of the McSharry/ECGSYN
 * dynamical model), plus baseline wander and measurement noise. Two
 * classes are produced by morphology changes that mimic the normal /
 * abnormal contrast of the UCR ECG test cases: the abnormal class
 * widens the QRS complex, depresses the T wave and perturbs the R
 * amplitude.
 */

#ifndef XPRO_DATA_ECG_SYNTH_HH
#define XPRO_DATA_ECG_SYNTH_HH

#include "common/random.hh"
#include "data/biosignal.hh"

namespace xpro
{

/** Tunable morphology of the synthetic ECG generator. */
struct EcgSynthConfig
{
    /** Heart rate used to place the beat inside the segment. */
    double heartRateBpm = 72.0;
    /** Standard deviation of additive white noise. */
    double noiseLevel = 0.04;
    /** Amplitude of slow baseline wander. */
    double baselineWander = 0.05;
    /** Relative QRS widening of the abnormal class. */
    double abnormalQrsWidening = 1.8;
    /** T-wave amplitude scale of the abnormal class. */
    double abnormalTScale = 0.35;
    /** R-peak amplitude scale of the abnormal class. */
    double abnormalRScale = 0.75;
};

/**
 * Generate one ECG segment.
 *
 * @param length Samples in the segment.
 * @param sample_rate_hz ADC rate the waveform is rendered at.
 * @param abnormal True for the abnormal (label -1) morphology.
 * @param config Generator tuning.
 * @param rng Randomness source (beat phase, noise, jitter).
 * @param materialize False skips the rendering: @p rng advances
 *        exactly as for a rendered segment (one draw sequence) and
 *        the result is empty.
 */
std::vector<double> synthesizeEcgSegment(size_t length,
                                         double sample_rate_hz,
                                         bool abnormal,
                                         const EcgSynthConfig &config,
                                         Rng &rng,
                                         bool materialize = true);

} // namespace xpro

#endif // XPRO_DATA_ECG_SYNTH_HH
