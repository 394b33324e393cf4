/**
 * @file
 * The complete candidate feature pool of the generic classification
 * framework: the 8 statistical features evaluated on the time domain
 * and on each of the 5 DWT levels (paper Sections 2.1 and 4.4),
 * 48 features in total. The random-subspace classifier draws its
 * per-base-classifier subsets from this pool, and the XPro topology
 * builder maps every selected feature back to a functional cell.
 */

#ifndef XPRO_DSP_FEATURE_POOL_HH
#define XPRO_DSP_FEATURE_POOL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/matrix.hh"
#include "dsp/dwt.hh"
#include "dsp/features.hh"

namespace xpro
{

/** Signal domain a feature is computed on. */
enum class FeatureDomain
{
    Time,
    Dwt1,
    Dwt2,
    Dwt3,
    Dwt4,
    Dwt5,
};

/** Number of feature domains (time + 5 DWT levels). */
constexpr size_t featureDomainCount = 6;

/** Number of DWT levels used by the generic framework. */
constexpr size_t dwtLevels = 5;

/** Total number of candidate features in the pool. */
constexpr size_t featurePoolSize = featureDomainCount * featureKindCount;

/** Display name, e.g. "time" or "dwt3". */
const std::string &domainName(FeatureDomain domain);

/** DWT level of a domain (1-based); 0 for the time domain. */
size_t domainLevel(FeatureDomain domain);

/** Identity of one pooled feature. */
struct FeatureId
{
    FeatureDomain domain;
    FeatureKind kind;

    bool operator==(const FeatureId &) const = default;
};

/** Dense index of a feature in [0, featurePoolSize). */
size_t featureIndex(FeatureId id);

/** Inverse of featureIndex(). */
FeatureId featureFromIndex(size_t index);

/** Display name, e.g. "Var@dwt2". */
std::string featureFullName(FeatureId id);

/**
 * Extracts the full 48-feature vector from a segment.
 *
 * The segment is framed to dwtFrameLength samples and decomposed
 * once; each domain's statistics reuse that decomposition, exactly as
 * the shared DWT functional cells do in hardware. The 5th DWT domain
 * covers both 4-sample segments (approximation and detail)
 * concatenated, matching the paper's description.
 */
class FeatureExtractor
{
  public:
    explicit FeatureExtractor(Wavelet wavelet = Wavelet::Db4);

    /** Samples belonging to @p domain for the given segment. */
    std::vector<double> domainSignal(const std::vector<double> &segment,
                                     FeatureDomain domain) const;

    /** Single feature value. */
    double extract(const std::vector<double> &segment, FeatureId id) const;

    /** Full pool vector, indexed by featureIndex(). */
    std::vector<double>
    extractAll(const std::vector<double> &segment) const;

    /**
     * Allocation-free extractAll: writes the featurePoolSize values
     * into @p out, reusing @p scratch for the DWT (zero heap
     * allocations once the scratch reached its high-water mark).
     * Bit-identical to extractAll(), which delegates here.
     */
    void extractAllInto(const double *segment, size_t n, double *out,
                        DwtScratch &scratch) const;

    /**
     * Cross-event extractAll: extracts the full pool for up to
     * simdPackWidth equal-length segments at once, writing segment
     * j's featurePoolSize values to outRows[j * featurePoolSize ..].
     * The segments are transposed once into a lane tile that doubles
     * as the DWT frame; DwtScratch::decomposePacked() writes each
     * level's detail tile straight into its domain tile (drawn from
     * @p arena), and all statistics run through
     * computeAllKindsPacked() — one event per lane, bit-identical to
     * extractAllInto() per segment, with the filter bank and the
     * reduction chains amortized across the group. Allocation-free
     * once @p arena and @p scratch reached their high-water marks.
     */
    void extractAllPackedInto(const double *const *segments,
                              size_t count, size_t n,
                              double *outRows, DwtScratch &scratch,
                              Arena &arena) const;

    Wavelet wavelet() const { return _wavelet; }

  private:
    Wavelet _wavelet;
};

/**
 * Min-max scaler mapping each feature column to [0, 1] with ranges
 * learned on the training set (paper Section 4.4: "all the
 * statistical features are normalized to range [0, 1]").
 */
class FeatureScaler
{
  public:
    /** Learn per-column min/max from row-major feature vectors. */
    void fit(const std::vector<std::vector<double>> &rows);

    /** Learn per-column min/max from a flat feature matrix. */
    void fit(const FlatMatrix &rows);

    /** Scale one vector; columns with zero range map to 0. */
    std::vector<double> transform(const std::vector<double> &row) const;

    /**
     * Allocation-free transform: scales row[0..cols) into out[0..cols)
     * where cols is the fitted column count. @p out may alias @p row.
     */
    void transformInto(const double *row, double *out) const;

    /** Scale every row of a flat feature matrix in place. */
    void transformRowsInPlace(FlatMatrix &rows) const;

    bool fitted() const { return !_min.empty(); }

    /** Learned per-column minima (for quantized inference). */
    const std::vector<double> &mins() const { return _min; }
    /** Learned per-column maxima. */
    const std::vector<double> &maxes() const { return _max; }

  private:
    std::vector<double> _min;
    std::vector<double> _max;
};

} // namespace xpro

#endif // XPRO_DSP_FEATURE_POOL_HH
