/**
 * @file
 * Small dense matrix with the linear-algebra kernels the reproduction
 * needs: products, transpose, Gaussian-elimination solve and ridge
 * least squares (used to train the weighted-voting score fusion of
 * the random-subspace classifier).
 *
 * Also the flat row-major sample storage of the ML hot path:
 * RowView (a non-owning view of one contiguous row) and FlatMatrix
 * (equal-length rows in one contiguous buffer, growable by row).
 * The classifier's datasets and projected subspaces live in
 * FlatMatrix, so kernel evaluations stream contiguous memory instead
 * of chasing one heap allocation per sample.
 */

#ifndef XPRO_COMMON_MATRIX_HH
#define XPRO_COMMON_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace xpro
{

/**
 * Non-owning const view of one contiguous row of doubles.
 *
 * Converts implicitly from std::vector<double>, so call sites can
 * pass a vector where a row is expected. A view never owns its
 * storage: keep the source alive for the lifetime of the view.
 */
class RowView
{
  public:
    RowView() = default;
    RowView(const double *data, size_t size)
        : _data(data), _size(size)
    {
    }
    RowView(const std::vector<double> &values)
        : _data(values.data()), _size(values.size())
    {
    }

    const double *data() const { return _data; }
    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    double operator[](size_t i) const { return _data[i]; }

    const double *begin() const { return _data; }
    const double *end() const { return _data + _size; }

    /** Materialize an owning copy. */
    std::vector<double>
    toVector() const
    {
        return {_data, _data + _size};
    }

  private:
    const double *_data = nullptr;
    size_t _size = 0;
};

/**
 * Flat row-major matrix of equal-length rows, growable one row at a
 * time. The column count is fixed by the first row pushed (or the
 * constructor); every later row must match it.
 *
 * The growable surface mirrors std::vector<std::vector<double>>
 * (push_back / size / reserve / operator[] / iteration) so row
 * containers can move onto contiguous storage without rewriting
 * their call sites; operator[] and iteration yield RowView.
 */
class FlatMatrix
{
  public:
    FlatMatrix() = default;

    /** A rows x cols matrix initialized to @p fill. */
    FlatMatrix(size_t rows, size_t cols, double fill = 0.0);

    /** Build from nested initializer lists (row major). */
    FlatMatrix(
        std::initializer_list<std::initializer_list<double>> rows);

    /** Copy from a vector-of-vectors row container. */
    static FlatMatrix
    fromRows(const std::vector<std::vector<double>> &rows);

    /** Number of rows. */
    size_t size() const { return _rows; }
    /** Number of columns (0 until the first row is pushed). */
    size_t cols() const { return _cols; }
    bool empty() const { return _rows == 0; }

    void reserve(size_t rows) { _data.reserve(rows * _cols); }

    /** Append a row; its length must match cols() once set. */
    void push_back(RowView row);

    RowView row(size_t i) const
    {
        return {_data.data() + i * _cols, _cols};
    }
    RowView operator[](size_t i) const { return row(i); }

    /** Mutable pointer to the start of row @p i. */
    double *rowData(size_t i) { return _data.data() + i * _cols; }
    const double *rowData(size_t i) const
    {
        return _data.data() + i * _cols;
    }

    /** The whole row-major buffer. */
    const std::vector<double> &flat() const { return _data; }

    bool operator==(const FlatMatrix &) const = default;

    /** Const forward iterator yielding RowView per row. */
    class ConstIterator
    {
      public:
        ConstIterator(const FlatMatrix *m, size_t row)
            : _m(m), _row(row)
        {
        }
        RowView operator*() const { return _m->row(_row); }
        ConstIterator &
        operator++()
        {
            ++_row;
            return *this;
        }
        bool
        operator!=(const ConstIterator &other) const
        {
            return _row != other._row;
        }
        bool
        operator==(const ConstIterator &other) const
        {
            return _row == other._row;
        }

      private:
        const FlatMatrix *_m;
        size_t _row;
    };

    ConstIterator begin() const { return {this, 0}; }
    ConstIterator end() const { return {this, _rows}; }

  private:
    size_t _rows = 0;
    size_t _cols = 0;
    std::vector<double> _data;
};

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Construct an empty (0 x 0) matrix. */
    Matrix() : _rows(0), _cols(0) {}

    /** Construct a rows x cols matrix initialized to @p fill. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    /** Identity matrix of order n. */
    static Matrix identity(size_t n);

    /** Build a column vector from @p values. */
    static Matrix columnVector(const std::vector<double> &values);

    size_t rows() const { return _rows; }
    size_t cols() const { return _cols; }

    double &at(size_t r, size_t c) { return _data[r * _cols + c]; }
    double at(size_t r, size_t c) const { return _data[r * _cols + c]; }

    double &operator()(size_t r, size_t c) { return at(r, c); }
    double operator()(size_t r, size_t c) const { return at(r, c); }

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(double scalar) const;

    Matrix transpose() const;

    /** Frobenius norm. */
    double norm() const;

    /** Flatten to a std::vector (row-major). */
    std::vector<double> flatten() const;

    /**
     * Solve A x = b by Gaussian elimination with partial pivoting.
     * A must be square and non-singular; b must be a column vector of
     * matching size. Calls fatal() on singular systems.
     */
    static Matrix solve(Matrix a, Matrix b);

    /**
     * Ridge least squares: minimize |A x - b|^2 + ridge * |x|^2 via
     * the normal equations. With ridge == 0 this is ordinary least
     * squares; a small positive ridge keeps near-collinear ensemble
     * score columns well-conditioned.
     */
    static Matrix
    leastSquares(const Matrix &a, const Matrix &b, double ridge = 0.0);

  private:
    size_t _rows;
    size_t _cols;
    std::vector<double> _data;
};

} // namespace xpro

#endif // XPRO_COMMON_MATRIX_HH
