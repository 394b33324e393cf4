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

void
PackedRows::assign(const FlatMatrix &a)
{
    pack(a, nullptr, a.size());
}

void
PackedRows::assign(const FlatMatrix &a, const std::vector<size_t> &rows)
{
    pack(a, rows.data(), rows.size());
}

void
PackedRows::pack(const FlatMatrix &a, const size_t *rows, size_t count)
{
    _count = count;
    _dims = a.cols();
    const size_t tiles = (count + simdPackWidth - 1) / simdPackWidth;
    _tiles.resize(tiles * _dims * simdPackWidth);
    _norms.resize(tiles * simdPackWidth);
    const double *tileRows[simdPackWidth];
    for (size_t first = 0; first < count; first += simdPackWidth) {
        const size_t lanes = std::min(simdPackWidth, count - first);
        for (size_t j = 0; j < lanes; ++j)
            tileRows[j] = a.rowData(rows ? rows[first + j] : first + j);
        double *tile = _tiles.data() + first * _dims;
        simdPackRows(tileRows, lanes, _dims, tile);
        simdSquaredNormsPacked(tile, _dims, _norms.data() + first);
    }
}

FlatMatrix
PackedRows::unpack() const
{
    FlatMatrix out(_count, _dims);
    for (size_t k = 0; k < _count; ++k) {
        const double *lane = _tiles.data() +
                             (k - k % simdPackWidth) * _dims +
                             k % simdPackWidth;
        for (size_t d = 0; d < _dims; ++d)
            out.rowData(k)[d] = lane[d * simdPackWidth];
    }
    return out;
}

void
PackedRows::kernelTile(const Kernel &kernel, const double *x,
                       double xNorm, size_t first, double *out,
                       const char *skip) const
{
    double dot[simdPackWidth];
    simdDotPacked(x, _tiles.data() + first * _dims, _dims, dot);
    const size_t lanes = std::min(simdPackWidth, _count - first);
    for (size_t j = 0; j < lanes; ++j) {
        if (skip && skip[j])
            continue;
        out[j] = kernel.kind == KernelKind::Rbf
                     ? rbfFromParts(kernel.gamma, xNorm,
                                    _norms[first + j], dot[j])
                     : dot[j];
    }
}

void
GramRows::bind(const Kernel &kernel, const FlatMatrix &a)
{
    _kernel = kernel;
    _a = &a;
    _packed.assign(a);
    const size_t n = a.size();
    // Grows only: a smaller Gram reuses the buffer without zeroing.
    if (_rows.size() < n * n)
        _rows.resize(n * n);
    _built.assign(n, 0);
}

const double *
GramRows::row(size_t i)
{
    const size_t n = size();
    xproAssert(i < n, "Gram row %zu of %zu", i, n);
    double *out = _rows.data() + i * n;
    if (_built[i])
        return out;

    // K is symmetric: an entry whose other row exists is a copy. A
    // tile of still-missing rows costs one kernel tile.
    const double *x = _a->rowData(i);
    const double x_norm = _packed.norm(i);
    for (size_t first = 0; first < n; first += simdPackWidth) {
        const size_t count = std::min(simdPackWidth, n - first);
        const char *built = _built.data() + first;
        if (std::find(built, built + count, 0) != built + count) {
            _packed.kernelTile(_kernel, x, x_norm, first, out + first,
                               built);
        }
        for (size_t j = 0; j < count; ++j) {
            if (built[j])
                out[first + j] = _rows[(first + j) * n + i];
        }
    }
    _built[i] = 1;
    return out;
}

double
GramRows::diagonal(size_t i) const
{
    xproAssert(i < size(), "Gram row %zu of %zu", i, size());
    // a_i.a_i and |a_i|^2 accumulate the same products in the same
    // order, so this is the entry row(i) would hold.
    const double norm = _packed.norm(i);
    return _kernel.kind == KernelKind::Rbf
               ? rbfFromParts(_kernel.gamma, norm, norm, norm)
               : norm;
}

std::string
Kernel::name() const
{
    if (kind == KernelKind::Linear)
        return "linear";
    return "rbf(gamma=" + std::to_string(gamma) + ")";
}

} // namespace xpro
