#include "dsp/feature_pool.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

const std::string &
domainName(FeatureDomain domain)
{
    static const std::array<std::string, featureDomainCount> names = {
        "time", "dwt1", "dwt2", "dwt3", "dwt4", "dwt5",
    };
    return names[static_cast<size_t>(domain)];
}

size_t
domainLevel(FeatureDomain domain)
{
    return static_cast<size_t>(domain);
}

size_t
featureIndex(FeatureId id)
{
    return static_cast<size_t>(id.domain) * featureKindCount +
           static_cast<size_t>(id.kind);
}

FeatureId
featureFromIndex(size_t index)
{
    xproAssert(index < featurePoolSize, "feature index %zu out of range",
               index);
    return FeatureId{
        static_cast<FeatureDomain>(index / featureKindCount),
        static_cast<FeatureKind>(index % featureKindCount),
    };
}

std::string
featureFullName(FeatureId id)
{
    return featureName(id.kind) + "@" + domainName(id.domain);
}

FeatureExtractor::FeatureExtractor(Wavelet wavelet)
    : _wavelet(wavelet)
{
}

std::vector<double>
FeatureExtractor::domainSignal(const std::vector<double> &segment,
                               FeatureDomain domain) const
{
    if (domain == FeatureDomain::Time)
        return segment;

    const std::vector<double> frame = frameForDwt(segment);
    const DwtDecomposition decomp =
        dwtDecompose(frame, _wavelet, dwtLevels);
    const size_t level = domainLevel(domain);
    std::vector<double> out = decomp.detail[level - 1];
    if (level == dwtLevels) {
        // Level 5 covers both 4-sample segments: detail and final
        // approximation.
        out.insert(out.end(), decomp.approx.begin(), decomp.approx.end());
    }
    return out;
}

double
FeatureExtractor::extract(const std::vector<double> &segment,
                          FeatureId id) const
{
    return computeFeature(id.kind, domainSignal(segment, id.domain));
}

std::vector<double>
FeatureExtractor::extractAll(const std::vector<double> &segment) const
{
    std::vector<double> out(featurePoolSize, 0.0);
    DwtScratch scratch;
    extractAllInto(segment.data(), segment.size(), out.data(),
                   scratch);
    return out;
}

void
FeatureExtractor::extractAllInto(const double *segment, size_t n,
                                 double *out,
                                 DwtScratch &scratch) const
{
    // Decompose once and reuse across all domains, as the shared DWT
    // cells do in the hardware pipeline. The frame and the dwt5
    // concatenation live on the stack; the decomposition reuses
    // @p scratch — no heap traffic in steady state.
    double frame[dwtFrameLength] = {};
    const size_t copied = std::min(n, dwtFrameLength);
    for (size_t i = 0; i < copied; ++i)
        frame[i] = segment[i];
    scratch.decompose(frame, dwtFrameLength, _wavelet, dwtLevels);

    for (size_t d = 0; d < featureDomainCount; ++d) {
        const auto domain = static_cast<FeatureDomain>(d);
        const double *signal;
        size_t signalLen;
        double dwt5[2 * (dwtFrameLength >> dwtLevels)];
        if (domain == FeatureDomain::Time) {
            // Time-domain statistics run on the RAW segment, not the
            // zero-padded frame.
            signal = segment;
            signalLen = n;
        } else {
            const size_t level = domainLevel(domain);
            signal = scratch.detailData(level - 1);
            signalLen = scratch.detailSize(level - 1);
            if (level == dwtLevels) {
                // Level 5 covers both 4-sample segments: detail and
                // final approximation.
                for (size_t i = 0; i < signalLen; ++i)
                    dwt5[i] = signal[i];
                const double *approx = scratch.approxData();
                for (size_t i = 0; i < scratch.approxSize(); ++i)
                    dwt5[signalLen + i] = approx[i];
                signalLen += scratch.approxSize();
                signal = dwt5;
            }
        }
        // The pool layout is domain-major with kinds in enum order,
        // so the fused per-domain pass writes its eight statistics
        // straight into the pool slice.
        computeAllKindsInto(signal, signalLen,
                            out + d * featureKindCount);
    }
}

void
FeatureExtractor::extractAllPackedInto(const double *const *segments,
                                       size_t count, size_t n,
                                       double *outRows,
                                       DwtScratch &scratch,
                                       Arena &arena) const
{
    xproAssert(count >= 1 && count <= simdPackWidth,
               "bad pack count %zu", count);

    // Domain signal lengths are fixed by the frame length, except
    // the time domain which runs on the raw segment.
    const size_t dwt5Detail = dwtFrameLength >> dwtLevels;
    size_t lens[featureDomainCount];
    lens[0] = n;
    for (size_t level = 1; level < dwtLevels; ++level)
        lens[level] = dwtFrameLength >> level;
    lens[dwtLevels] = 2 * dwt5Detail;

    // The time tile, zero-padded to the frame's rows and in the
    // padding lanes, doubles as the DWT frame: its first
    // dwtFrameLength rows are each lane's frameForDwt(). A short
    // segment's padded tile lives in the scratch, so a pack draws
    // no more arena than its domain tiles.
    double *tiles[featureDomainCount];
    if (n < dwtFrameLength) {
        tiles[0] = scratch.packedFrame(dwtFrameLength);
        std::fill(tiles[0] + n * simdPackWidth,
                  tiles[0] + dwtFrameLength * simdPackWidth, 0.0);
    } else {
        tiles[0] = arena.alloc<double>(n * simdPackWidth);
    }
    simdPackRows(segments, count, n, tiles[0]);
    for (size_t d = 1; d < featureDomainCount; ++d)
        tiles[d] = arena.alloc<double>(lens[d] * simdPackWidth);

    // Level 5 covers both 4-sample segments: its tile holds the
    // detail rows, then the final approximation rows. Zero padding
    // lanes stay zero through the transform.
    scratch.decomposePacked(tiles[0], dwtFrameLength, _wavelet,
                            dwtLevels, tiles + 1,
                            tiles[dwtLevels] +
                                dwt5Detail * simdPackWidth);

    for (size_t d = 0; d < featureDomainCount; ++d)
        computeAllKindsPacked(tiles[d], lens[d], count,
                              outRows + d * featureKindCount,
                              featurePoolSize);
}

void
FeatureScaler::fit(const std::vector<std::vector<double>> &rows)
{
    xproAssert(!rows.empty(), "cannot fit scaler on empty data");
    const size_t cols = rows.front().size();
    _min.assign(cols, std::numeric_limits<double>::infinity());
    _max.assign(cols, -std::numeric_limits<double>::infinity());
    for (const auto &row : rows) {
        xproAssert(row.size() == cols, "ragged feature rows");
        for (size_t c = 0; c < cols; ++c) {
            _min[c] = std::min(_min[c], row[c]);
            _max[c] = std::max(_max[c], row[c]);
        }
    }
}

void
FeatureScaler::fit(const FlatMatrix &rows)
{
    xproAssert(!rows.empty(), "cannot fit scaler on empty data");
    const size_t cols = rows.cols();
    _min.assign(cols, std::numeric_limits<double>::infinity());
    _max.assign(cols, -std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < rows.size(); ++i) {
        const double *row = rows.rowData(i);
        for (size_t c = 0; c < cols; ++c) {
            _min[c] = std::min(_min[c], row[c]);
            _max[c] = std::max(_max[c], row[c]);
        }
    }
}

void
FeatureScaler::transformRowsInPlace(FlatMatrix &rows) const
{
    xproAssert(fitted(), "scaler not fitted");
    xproAssert(rows.cols() == _min.size(), "column count mismatch");
    for (size_t i = 0; i < rows.size(); ++i) {
        double *row = rows.rowData(i);
        for (size_t c = 0; c < rows.cols(); ++c) {
            const double range = _max[c] - _min[c];
            if (range < 1e-12) {
                row[c] = 0.0;
            } else {
                row[c] = std::clamp((row[c] - _min[c]) / range,
                                    0.0, 1.0);
            }
        }
    }
}

std::vector<double>
FeatureScaler::transform(const std::vector<double> &row) const
{
    xproAssert(row.size() == _min.size(), "column count mismatch");
    std::vector<double> out(row.size());
    transformInto(row.data(), out.data());
    return out;
}

void
FeatureScaler::transformInto(const double *row, double *out) const
{
    xproAssert(fitted(), "scaler not fitted");
    for (size_t c = 0; c < _min.size(); ++c) {
        const double range = _max[c] - _min[c];
        if (range < 1e-12) {
            out[c] = 0.0;
        } else {
            out[c] = std::clamp((row[c] - _min[c]) / range, 0.0, 1.0);
        }
    }
}

} // namespace xpro
