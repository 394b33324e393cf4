/**
 * @file
 * Discrete wavelet transform for multi-scale biosignal analysis
 * (paper Sections 2.1 and 4.4).
 *
 * The generic framework extracts the statistical feature set on up to
 * five DWT levels. For the paper's segment sizes the transform runs
 * on a 128-sample frame (inputs are zero-padded or truncated), giving
 * detail lengths 64, 32, 16, 8 and 4, with the 5th level also
 * producing the 4-sample approximation ("the 5-th level has two
 * 4-sample segments").
 */

#ifndef XPRO_DSP_DWT_HH
#define XPRO_DSP_DWT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace xpro
{

/** Supported wavelet families. */
enum class Wavelet
{
    Haar,
    Db4,
};

/** Display name of a wavelet. */
const std::string &waveletName(Wavelet wavelet);

/** Result of a single decomposition level. */
struct DwtLevel
{
    /** Approximation (low-pass) coefficients, length N/2. */
    std::vector<double> approx;
    /** Detail (high-pass) coefficients, length N/2. */
    std::vector<double> detail;
};

/**
 * One DWT analysis step with periodic boundary extension. The input
 * length must be even and >= the filter length.
 *
 * This is the retained scalar reference of the transform: plain
 * per-output tap loops, against which the vectorized decomposition
 * (DwtScratch / dwtDecompose) is differentially tested for exact
 * equality.
 */
DwtLevel dwtStep(const std::vector<double> &signal, Wavelet wavelet);

/** Inverse of dwtStep(); reconstructs the even-length input. */
std::vector<double> idwtStep(const DwtLevel &level, Wavelet wavelet);

/** Multi-level decomposition result. */
struct DwtDecomposition
{
    /** detail[k] holds level k+1 coefficients (length N/2^(k+1)). */
    std::vector<std::vector<double>> detail;
    /** Final approximation at the deepest level. */
    std::vector<double> approx;
};

/**
 * Reusable workspace for allocation-free multi-level DWT on the
 * serving hot path.
 *
 * decompose() splits each level's input into even/odd phase halves
 * (with a periodic extension tail), then builds every output element
 * as a sum of SIMD axpy passes — one per filter tap, in tap order —
 * so each coefficient accumulates exactly like dwtStep()'s scalar
 * tap loop and the results are bit-identical to it.
 *
 * All buffers grow to the workload's high-water mark on first use
 * and are reused afterwards: steady-state decompose() calls perform
 * zero heap allocations. Coefficients live inside the scratch until
 * the next decompose() call; copy them out if they must outlive it.
 */
class DwtScratch
{
  public:
    /**
     * Decompose signal[0..n) into @p levels levels. @p n must be
     * divisible by 2^levels and each level's input at least as long
     * as the filter.
     */
    void decompose(const double *signal, size_t n, Wavelet wavelet,
                   size_t levels);

    /** Number of levels of the last decompose() call. */
    size_t levels() const { return _levels; }

    /** Detail coefficients of level @p level (0-based, matching
     * DwtDecomposition::detail indexing). */
    const double *
    detailData(size_t level) const
    {
        return _coefs.data() + _detailOffsets[level];
    }
    size_t
    detailSize(size_t level) const
    {
        return _n >> (level + 1);
    }

    /** Final approximation at the deepest level. */
    const double *
    approxData() const
    {
        return _coefs.data() + _approxOffset;
    }
    size_t approxSize() const { return _n >> _levels; }

    /**
     * Lane-packed decompose(): @p tile holds simdPackWidth signals
     * of length @p n in the interleaved layout of simdPackRows().
     * Level l's detail tile (n >> (l + 1) rows) lands in
     * details[l] and the final approximation tile (n >> levels rows)
     * in @p approx, each lane bit-identical to decompose() of that
     * lane alone. The inter-level approximations ping-pong through
     * the scratch's own tiles; the outputs must not overlap @p tile.
     */
    void decomposePacked(const double *tile, size_t n, Wavelet wavelet,
                         size_t levels, double *const *details,
                         double *approx);

    /**
     * Grow-only tile of @p rows lane-packed rows for a caller that
     * builds a padded frame; valid until the next call.
     */
    double *packedFrame(size_t rows);

  private:
    std::vector<double> _coefs;   ///< details then final approx
    std::vector<double> _work;    ///< inter-level approx ping buffer
    std::vector<double> _evenExt; ///< even phase + periodic tail
    std::vector<double> _oddExt;  ///< odd phase + periodic tail
    std::vector<double> _packedWork;  ///< ping-pong approx tiles
    std::vector<double> _packedFrame; ///< see packedFrame()
    std::vector<size_t> _detailOffsets;
    size_t _approxOffset = 0;
    size_t _levels = 0;
    size_t _n = 0;
};

/**
 * Decompose @p signal into @p levels DWT levels. The signal length
 * must be divisible by 2^levels. Runs on the vectorized DwtScratch
 * path; results are bit-identical to chaining dwtStep().
 */
DwtDecomposition dwtDecompose(const std::vector<double> &signal,
                              Wavelet wavelet, size_t levels);

/** Reconstruct the signal from a full decomposition. */
std::vector<double> dwtReconstruct(const DwtDecomposition &decomp,
                                   Wavelet wavelet);

/**
 * Frame length used by the generic classification engine: inputs are
 * zero-padded or truncated to this power of two before the DWT.
 */
constexpr size_t dwtFrameLength = 128;

/** Pad with zeros or truncate to dwtFrameLength samples. */
std::vector<double> frameForDwt(const std::vector<double> &signal);

} // namespace xpro

#endif // XPRO_DSP_DWT_HH
