#include "ml/kernel.hh"

#include <cmath>

#include <algorithm>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

double
dotProduct(RowView x, RowView z)
{
    xproAssert(x.size() == z.size(), "vector size mismatch %zu vs %zu",
               x.size(), z.size());
    double acc = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        acc += x[i] * z[i];
    return acc;
}

double
squaredDistance(RowView x, RowView z)
{
    xproAssert(x.size() == z.size(), "vector size mismatch %zu vs %zu",
               x.size(), z.size());
    double acc = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - z[i];
        acc += d * d;
    }
    return acc;
}

double
Kernel::operator()(RowView x, RowView z) const
{
    switch (kind) {
      case KernelKind::Linear:
        return dotProduct(x, z);
      case KernelKind::Rbf:
        return std::exp(-gamma * squaredDistance(x, z));
    }
    panic("unknown kernel kind %d", static_cast<int>(kind));
}

FlatMatrix
Kernel::gram(const FlatMatrix &a, const FlatMatrix &b) const
{
    // One blocked cross-product pass gives every dot product; the
    // RBF then needs only the per-row squared norms on top.
    FlatMatrix out = a.multiplyTransposed(b);
    if (kind == KernelKind::Linear)
        return out;

    const std::vector<double> a_norms = a.rowSquaredNorms();
    const std::vector<double> b_norms = b.rowSquaredNorms();
    for (size_t i = 0; i < a.size(); ++i) {
        double *row = out.rowData(i);
        for (size_t j = 0; j < b.size(); ++j)
            row[j] = rbfFromParts(gamma, a_norms[i], b_norms[j],
                                  row[j]);
    }
    return out;
}

void
GramRows::bind(const Kernel &kernel, const FlatMatrix &a)
{
    _kernel = kernel;
    _a = &a;
    _n = a.size();
    const size_t dims = a.cols();
    const size_t tiles = (_n + simdPackWidth - 1) / simdPackWidth;
    _packed.resize(tiles * dims * simdPackWidth);
    _norms.resize(tiles * simdPackWidth);
    // The norms come from the packed tiles, rowSquaredNorms()'s
    // schedule, so they equal the norms gram() and the trained
    // model's support vectors use.
    const double *tileRows[simdPackWidth];
    for (size_t first = 0; first < _n; first += simdPackWidth) {
        const size_t count = std::min(simdPackWidth, _n - first);
        for (size_t j = 0; j < count; ++j)
            tileRows[j] = a.rowData(first + j);
        double *tile = _packed.data() + first * dims;
        simdPackRows(tileRows, count, dims, tile);
        simdSquaredNormsPacked(tile, dims, _norms.data() + first);
    }
    // Grows only: a smaller Gram reuses the buffer without zeroing.
    if (_rows.size() < _n * _n)
        _rows.resize(_n * _n);
    _built.assign(_n, 0);
}

const double *
GramRows::row(size_t i)
{
    xproAssert(i < _n, "Gram row %zu of %zu", i, _n);
    double *out = _rows.data() + i * _n;
    if (_built[i])
        return out;

    // K is symmetric: an entry whose other row exists is a copy. A
    // tile of still-missing rows costs one packed multi-dot.
    const size_t dims = _a->cols();
    const double *x = _a->rowData(i);
    double lane[simdPackWidth];
    for (size_t first = 0; first < _n; first += simdPackWidth) {
        const size_t count = std::min(simdPackWidth, _n - first);
        const char *built = _built.data() + first;
        if (std::find(built, built + count, 0) != built + count) {
            simdDotPacked(x, _packed.data() + first * dims, dims,
                          lane);
        }
        for (size_t j = 0; j < count; ++j) {
            const size_t k = first + j;
            if (built[j]) {
                out[k] = _rows[k * _n + i];
            } else {
                out[k] = _kernel.kind == KernelKind::Rbf
                             ? rbfFromParts(_kernel.gamma, _norms[i],
                                            _norms[k], lane[j])
                             : lane[j];
            }
        }
    }
    _built[i] = 1;
    return out;
}

double
GramRows::diagonal(size_t i) const
{
    xproAssert(i < _n, "Gram row %zu of %zu", i, _n);
    // a_i.a_i and |a_i|^2 accumulate the same products in the same
    // order, so this is the entry row(i) would hold.
    return _kernel.kind == KernelKind::Rbf
               ? rbfFromParts(_kernel.gamma, _norms[i], _norms[i],
                              _norms[i])
               : _norms[i];
}

std::string
Kernel::name() const
{
    if (kind == KernelKind::Linear)
        return "linear";
    return "rbf(gamma=" + std::to_string(gamma) + ")";
}

} // namespace xpro
