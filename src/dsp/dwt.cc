#include "dsp/dwt.hh"

#include <cmath>
#include <numbers>

#include <cstring>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

namespace
{

/** Analysis low-pass filter taps for each wavelet family. */
const std::vector<double> &
lowPassTaps(Wavelet wavelet)
{
    static const std::vector<double> haar = {
        1.0 / std::numbers::sqrt2, 1.0 / std::numbers::sqrt2,
    };
    // Daubechies-4 (two vanishing moments) analysis taps.
    static const std::vector<double> db4 = {
        0.48296291314469025, 0.83651630373746899,
        0.22414386804185735, -0.12940952255092145,
    };
    return wavelet == Wavelet::Haar ? haar : db4;
}

/** High-pass taps by the quadrature-mirror relation. */
std::vector<double>
highPassTaps(Wavelet wavelet)
{
    const std::vector<double> &low = lowPassTaps(wavelet);
    std::vector<double> high(low.size());
    for (size_t i = 0; i < low.size(); ++i) {
        const double sign = (i % 2 == 0) ? 1.0 : -1.0;
        high[i] = sign * low[low.size() - 1 - i];
    }
    return high;
}

/**
 * Cached high-pass taps, built once per family: no transform
 * constructs a tap vector per call (the decompose() paths'
 * zero-allocation contract).
 */
const std::vector<double> &
highPassTapsCached(Wavelet wavelet)
{
    static const std::vector<double> haar =
        highPassTaps(Wavelet::Haar);
    static const std::vector<double> db4 =
        highPassTaps(Wavelet::Db4);
    return wavelet == Wavelet::Haar ? haar : db4;
}

} // namespace

const std::string &
waveletName(Wavelet wavelet)
{
    static const std::string haar = "Haar";
    static const std::string db4 = "Db4";
    return wavelet == Wavelet::Haar ? haar : db4;
}

DwtLevel
dwtStep(const std::vector<double> &signal, Wavelet wavelet)
{
    const std::vector<double> &low = lowPassTaps(wavelet);
    const std::vector<double> &high = highPassTapsCached(wavelet);
    const size_t n = signal.size();
    xproAssert(n % 2 == 0, "DWT input length %zu must be even", n);
    xproAssert(n >= low.size(), "DWT input shorter than filter");

    DwtLevel out;
    out.approx.resize(n / 2);
    out.detail.resize(n / 2);
    for (size_t k = 0; k < n / 2; ++k) {
        double a = 0.0;
        double d = 0.0;
        for (size_t tap = 0; tap < low.size(); ++tap) {
            const double sample = signal[(2 * k + tap) % n];
            a += low[tap] * sample;
            d += high[tap] * sample;
        }
        out.approx[k] = a;
        out.detail[k] = d;
    }
    return out;
}

std::vector<double>
idwtStep(const DwtLevel &level, Wavelet wavelet)
{
    const std::vector<double> &low = lowPassTaps(wavelet);
    const std::vector<double> &high = highPassTapsCached(wavelet);
    const size_t half = level.approx.size();
    xproAssert(level.detail.size() == half,
               "approx/detail length mismatch");

    std::vector<double> out(2 * half, 0.0);
    for (size_t k = 0; k < half; ++k) {
        for (size_t tap = 0; tap < low.size(); ++tap) {
            const size_t idx = (2 * k + tap) % (2 * half);
            out[idx] += low[tap] * level.approx[k] +
                        high[tap] * level.detail[k];
        }
    }
    return out;
}

void
DwtScratch::decompose(const double *signal, size_t n,
                      Wavelet wavelet, size_t levels)
{
    xproAssert(levels > 0, "need at least one DWT level");
    const size_t divisor = size_t{1} << levels;
    xproAssert(n % divisor == 0,
               "signal length %zu not divisible by 2^%zu", n,
               levels);

    const std::vector<double> &low = lowPassTaps(wavelet);
    const std::vector<double> &high = highPassTapsCached(wavelet);
    const size_t taps = low.size();
    // Periodic extension: tap t reads phase element k + t/2, so the
    // phase buffers carry taps/2 - 1 wrapped elements past the end.
    const size_t ext = taps / 2 - 1;

    // Grow-only sizing; no-ops once the high-water mark is reached.
    if (_coefs.size() < n)
        _coefs.resize(n);
    if (_work.size() < n / 2)
        _work.resize(n / 2);
    if (_evenExt.size() < n / 2 + ext)
        _evenExt.resize(n / 2 + ext);
    if (_oddExt.size() < n / 2 + ext)
        _oddExt.resize(n / 2 + ext);
    if (_detailOffsets.size() < levels)
        _detailOffsets.resize(levels);
    _levels = levels;
    _n = n;

    const double *cur = signal;
    size_t m = n;
    size_t coefCursor = 0;
    for (size_t level = 0; level < levels; ++level) {
        xproAssert(m % 2 == 0, "DWT input length %zu must be even",
                   m);
        xproAssert(m >= taps, "DWT input shorter than filter");
        const size_t half = m / 2;

        // Split into phases; the split copies the input out, so the
        // approximation may safely overwrite it in place below.
        for (size_t k = 0; k < half; ++k) {
            _evenExt[k] = cur[2 * k];
            _oddExt[k] = cur[2 * k + 1];
        }
        for (size_t e = 0; e < ext; ++e) {
            _evenExt[half + e] = _evenExt[e];
            _oddExt[half + e] = _oddExt[e];
        }

        double *detail = _coefs.data() + coefCursor;
        _detailOffsets[level] = coefCursor;
        coefCursor += half;
        double *approx = _work.data();

        // Start each output at 0.0 and add one tap's contribution
        // per pass, in tap order — element-for-element the schedule
        // of dwtStep()'s scalar loop, hence bit-identical (including
        // signed-zero behaviour, which a scale-then-add start would
        // not preserve).
        std::memset(approx, 0, half * sizeof(double));
        std::memset(detail, 0, half * sizeof(double));
        for (size_t tap = 0; tap < taps; ++tap) {
            const double *phase = (tap % 2 == 0 ? _evenExt.data()
                                                : _oddExt.data()) +
                                  tap / 2;
            simdAxpy(approx, phase, low[tap], half);
            simdAxpy(detail, phase, high[tap], half);
        }

        cur = _work.data();
        m = half;
    }

    _approxOffset = coefCursor;
    std::memcpy(_coefs.data() + _approxOffset, cur,
                m * sizeof(double));
}

void
DwtScratch::decomposePacked(const double *tile, size_t n,
                            Wavelet wavelet, size_t levels,
                            double *const *details, double *approx)
{
    xproAssert(levels > 0, "need at least one DWT level");
    xproAssert(n % (size_t{1} << levels) == 0,
               "signal length %zu not divisible by 2^%zu", n,
               levels);
    const std::vector<double> &low = lowPassTaps(wavelet);
    const std::vector<double> &high = highPassTapsCached(wavelet);

    // Level l's approximation goes to half l % 2 of the work tiles
    // (n/2 rows, then n/4), the last level's straight to @p approx.
    const size_t pong = n / 2 * simdPackWidth;
    if (_packedWork.size() < pong + pong / 2)
        _packedWork.resize(pong + pong / 2);

    const double *cur = tile;
    size_t m = n;
    for (size_t level = 0; level < levels; ++level) {
        xproAssert(m >= low.size(), "DWT input shorter than filter");
        double *next = level + 1 == levels
                           ? approx
                           : _packedWork.data() + (level % 2) * pong;
        simdDwtStepPacked(cur, m, low.data(), high.data(), low.size(),
                          next, details[level]);
        cur = next;
        m /= 2;
    }
}

double *
DwtScratch::packedFrame(size_t rows)
{
    if (_packedFrame.size() < rows * simdPackWidth)
        _packedFrame.resize(rows * simdPackWidth);
    return _packedFrame.data();
}

DwtDecomposition
dwtDecompose(const std::vector<double> &signal, Wavelet wavelet,
             size_t levels)
{
    DwtScratch scratch;
    scratch.decompose(signal.data(), signal.size(), wavelet, levels);

    DwtDecomposition decomp;
    decomp.detail.reserve(levels);
    for (size_t level = 0; level < levels; ++level) {
        const double *d = scratch.detailData(level);
        decomp.detail.emplace_back(d, d + scratch.detailSize(level));
    }
    const double *a = scratch.approxData();
    decomp.approx.assign(a, a + scratch.approxSize());
    return decomp;
}

std::vector<double>
dwtReconstruct(const DwtDecomposition &decomp, Wavelet wavelet)
{
    std::vector<double> current = decomp.approx;
    for (size_t level = decomp.detail.size(); level-- > 0;) {
        DwtLevel step;
        step.approx = std::move(current);
        step.detail = decomp.detail[level];
        current = idwtStep(step, wavelet);
    }
    return current;
}

std::vector<double>
frameForDwt(const std::vector<double> &signal)
{
    std::vector<double> frame(dwtFrameLength, 0.0);
    const size_t n = std::min(signal.size(), dwtFrameLength);
    for (size_t i = 0; i < n; ++i)
        frame[i] = signal[i];
    return frame;
}

} // namespace xpro
