/**
 * @file
 * Kernel functions for the SVM base classifiers. The paper's
 * evaluation uses a binary SVM with a radial basis function kernel
 * (Section 4.4); the linear kernel is kept both for tests and because
 * prior in-sensor designs are linear-SVM-only (Section 1).
 *
 * Besides the pairwise form, kernels evaluate in batch over flat
 * row-major matrices: the RBF Gram matrix is assembled from per-row
 * squared norms and one blocked cross-product pass,
 * K(i,j) = exp(-gamma * (|xi|^2 + |xj|^2 - 2 xi.xj)), which is what
 * whole-test-set inference consumes. SMO training reads the same
 * values one row at a time from GramRows, which builds a row only
 * when the solver asks for it.
 */

#ifndef XPRO_ML_KERNEL_HH
#define XPRO_ML_KERNEL_HH

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/matrix.hh"

namespace xpro
{

/** Kernel family. */
enum class KernelKind
{
    Linear,
    Rbf,
};

/**
 * RBF value from precomputed parts: squared norms of both operands
 * plus their dot product. The batched Gram builders and the
 * per-sample decision path share this helper (with identically
 * ordered dot products), so batch and per-sample results are
 * bit-identical.
 */
inline double
rbfFromParts(double gamma, double x_norm, double z_norm, double dot)
{
    return std::exp(-gamma * (x_norm + z_norm - 2.0 * dot));
}

/** Kernel configuration: family plus RBF width. */
struct Kernel
{
    KernelKind kind = KernelKind::Rbf;
    /** RBF gamma in K(x,z) = exp(-gamma * |x - z|^2). */
    double gamma = 1.0;

    /** Evaluate the kernel on two equally sized rows. */
    double operator()(RowView x, RowView z) const;

    /**
     * Batched Gram matrix K(i,j) = kernel(a[i], b[j]) over two flat
     * row matrices with matching widths.
     */
    FlatMatrix gram(const FlatMatrix &a, const FlatMatrix &b) const;

    /** Display name, e.g. "rbf(gamma=0.5)". */
    std::string name() const;
};

/**
 * Rows of the self-Gram K(i,j) = kernel(a[i], a[j]), each built on
 * its first request. SMO reads only the rows of the samples its pair
 * steps pick, so most rows of a training Gram are never built.
 *
 * bind() packs the data into simdPackWidth-row tiles once. Building
 * row i copies K(i,k) from every row k already built and computes
 * the rest as rbfFromParts(gamma, |a_i|^2, |a_k|^2, a_i.a_k) (the
 * bare dot for the linear kernel) with the packed multi-dot kernel:
 * the schedule of gram(a, a), so every entry is bit-identical to it.
 * Row storage is kept across bind() calls, so one GramRows trains
 * any number of models in turn without reallocating.
 */
class GramRows
{
  public:
    /**
     * Start a new Gram over @p a, forgetting every built row. @p a
     * must outlive the rows' use.
     */
    void bind(const Kernel &kernel, const FlatMatrix &a);

    /** Number of rows (and columns). */
    size_t size() const { return _n; }

    /**
     * Row @p i, built now if it was never requested. The pointer
     * stays valid, and the row unchanged, until the next bind().
     */
    const double *row(size_t i);

    /** Whether row @p i has been built since bind(). */
    bool built(size_t i) const { return _built[i]; }

    /** K(i,i), from the row norms; needs no built row. */
    double diagonal(size_t i) const;

  private:
    Kernel _kernel;
    const FlatMatrix *_a = nullptr;
    size_t _n = 0;
    /** Tile b holds rows [8b, 8b+8) in simdPackRows() layout. */
    std::vector<double> _packed;
    std::vector<double> _norms;
    /** Row i at [i * n, (i + 1) * n); only built rows are written. */
    std::vector<double> _rows;
    std::vector<char> _built;
};

/** Squared Euclidean distance between two equally sized rows. */
double squaredDistance(RowView x, RowView z);

/** Dot product of two equally sized rows. */
double dotProduct(RowView x, RowView z);

} // namespace xpro

#endif // XPRO_ML_KERNEL_HH
