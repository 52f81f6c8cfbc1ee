#pragma once
// Dense row-major matrix container and non-owning strided views.
//
// The whole library works in terms of these types: the simulated tensor
// unit consumes `ConstMatrixView` operands and writes a `MatrixView`
// destination, so algorithms can hand sub-blocks of larger matrices to the
// device without copying (mirroring how real TCU instructions take memory
// addresses, Section 3 of the paper).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

namespace tcu {

/// Stateless allocator for `Matrix` and `TiledMatrix` storage: every
/// buffer starts on a 64-byte cache line. glibc's large chunks start 16
/// bytes past one, which splits every zmm load and store of the micro
/// kernel across two lines and makes adjacent 64-column blocks, written
/// by different lanes, share a line. It takes one extra line from plain
/// `::operator new`, rounds the pointer up and keeps the raw pointer in
/// the gap. Aligned `new` (memalign chunks) would fragment the heap
/// under per-call activations and raise peak RSS.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;
  static_assert(alignof(T) <= kAlign);
  // The rounded pointer lies at least one new-alignment step past the
  // raw one, which leaves room for the raw pointer below it.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kAlign) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* raw = ::operator new(n * sizeof(T) + kAlign);
    const std::uintptr_t at =
        (reinterpret_cast<std::uintptr_t>(raw) + kAlign) & ~(kAlign - 1);
    char* aligned = static_cast<char*>(raw) +
                    (at - reinterpret_cast<std::uintptr_t>(raw));
    std::memcpy(reinterpret_cast<void**>(aligned) - 1, &raw, sizeof raw);
    return reinterpret_cast<T*>(aligned);
  }

  void deallocate(T* p, std::size_t) noexcept {
    void* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<void**>(p) - 1, sizeof raw);
    ::operator delete(raw);
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

template <typename T>
struct ConstMatrixView;

/// Non-owning mutable view over a row-major block with a row stride.
template <typename T>
struct MatrixView {
  T* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;  ///< distance in elements between row starts

  MatrixView() = default;
  MatrixView(T* d, std::size_t r, std::size_t c, std::size_t s)
      : data(d), rows(r), cols(c), stride(s) {
    assert(s >= c);
  }

  T& operator()(std::size_t i, std::size_t j) const {
    assert(i < rows && j < cols);
    return data[i * stride + j];
  }

  MatrixView subview(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
    if (r0 + nr > rows || c0 + nc > cols) {
      throw std::out_of_range("MatrixView::subview out of range");
    }
    return MatrixView(data + r0 * stride + c0, nr, nc, stride);
  }

  /// Rows [r0, r0+nr) as a full-width view.
  MatrixView row_block(std::size_t r0, std::size_t nr) const {
    return subview(r0, 0, nr, cols);
  }

  void fill(const T& value) const {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) (*this)(i, j) = value;
    }
  }

  ConstMatrixView<T> as_const() const;
};

/// Non-owning read-only view; implicitly convertible from MatrixView.
template <typename T>
struct ConstMatrixView {
  const T* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const T* d, std::size_t r, std::size_t c, std::size_t s)
      : data(d), rows(r), cols(c), stride(s) {
    assert(s >= c);
  }
  ConstMatrixView(MatrixView<T> v)  // NOLINT: intentional implicit
      : data(v.data), rows(v.rows), cols(v.cols), stride(v.stride) {}

  const T& operator()(std::size_t i, std::size_t j) const {
    assert(i < rows && j < cols);
    return data[i * stride + j];
  }

  ConstMatrixView subview(std::size_t r0, std::size_t c0, std::size_t nr,
                          std::size_t nc) const {
    if (r0 + nr > rows || c0 + nc > cols) {
      throw std::out_of_range("ConstMatrixView::subview out of range");
    }
    return ConstMatrixView(data + r0 * stride + c0, nr, nc, stride);
  }

  ConstMatrixView row_block(std::size_t r0, std::size_t nr) const {
    return subview(r0, 0, nr, cols);
  }
};

template <typename T>
ConstMatrixView<T> MatrixView<T>::as_const() const {
  return ConstMatrixView<T>(data, rows, cols, stride);
}

/// Owning dense row-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, const T& init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(std::size_t n) {
    Matrix eye(n, n, T{});
    for (std::size_t i = 0; i < n; ++i) eye(i, i) = T{1};
    return eye;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  MatrixView<T> view() {
    return MatrixView<T>(data_.data(), rows_, cols_, cols_);
  }
  ConstMatrixView<T> view() const {
    return ConstMatrixView<T>(data_.data(), rows_, cols_, cols_);
  }
  MatrixView<T> subview(std::size_t r0, std::size_t c0, std::size_t nr,
                        std::size_t nc) {
    return view().subview(r0, c0, nr, nc);
  }
  ConstMatrixView<T> subview(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const {
    return view().subview(r0, c0, nr, nc);
  }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, CacheLineAllocator<T>> data_;
};

/// Owning tile-major matrix: storage is partitioned into s x s tiles
/// (s = the device's sqrt(m)), each tile a contiguous row-major block, laid
/// out strip-major — all tiles of tile-column 0 first (top to bottom), then
/// tile-column 1, and so on — so `tile_view(ti, tj)` is a contiguous s x s
/// right operand and `strip_view(tj)` a contiguous (rows x s, stride s)
/// tall operand or destination, the layouts real TCU loads want. Logical
/// dimensions are zero-padded up to tile multiples (the paper's
/// divisibility assumption, materialized in storage). It backs
/// DenseLayer's packed weights and the Mlp's activations on tile-aligned
/// shapes, which the Mlp's strip tasks stream strip by strip past the
/// resident weight tiles, and the GEP rounds of transitive
/// closure and Gaussian elimination, which reach the layout through
/// `with_strip_major` (in place when they can).
template <typename T>
class TiledMatrix {
 public:
  TiledMatrix() = default;
  TiledMatrix(std::size_t rows, std::size_t cols, std::size_t tile_dim)
      : rows_(rows), cols_(cols), s_(tile_dim) {
    if (tile_dim == 0) {
      throw std::invalid_argument("TiledMatrix: tile_dim must be >= 1");
    }
    tile_rows_ = (rows + s_ - 1) / s_;
    tile_cols_ = (cols + s_ - 1) / s_;
    data_.assign(tile_rows_ * tile_cols_ * s_ * s_, T{});
  }

  /// Pack a row-major view into tile-major storage (the row-major ->
  /// tile-major packer; padding stays zero). Each source row is copied as
  /// one contiguous segment per tile column.
  static TiledMatrix pack(ConstMatrixView<T> src, std::size_t tile_dim) {
    TiledMatrix out(src.rows, src.cols, tile_dim);
    const std::size_t s = out.s_;
    for (std::size_t i = 0; i < src.rows; ++i) {
      const T* row = src.data + i * src.stride;
      for (std::size_t tj = 0; tj < out.tile_cols_; ++tj) {
        const std::size_t j0 = tj * s;
        std::copy(row + j0, row + std::min(j0 + s, src.cols),
                  out.tile_ptr(i / s, tj) + (i % s) * s);
      }
    }
    return out;
  }

  std::size_t rows() const { return rows_; }  ///< logical rows
  std::size_t cols() const { return cols_; }  ///< logical cols
  std::size_t tile_dim() const { return s_; }
  std::size_t tile_rows() const { return tile_rows_; }  ///< tiles per column
  std::size_t tile_cols() const { return tile_cols_; }  ///< tiles per row
  bool empty() const { return data_.empty(); }

  /// Tile (ti, tj) as a contiguous s x s view (stride == s).
  MatrixView<T> tile_view(std::size_t ti, std::size_t tj) {
    return MatrixView<T>(tile_ptr(ti, tj), s_, s_, s_);
  }
  ConstMatrixView<T> tile_view(std::size_t ti, std::size_t tj) const {
    return ConstMatrixView<T>(tile_ptr(ti, tj), s_, s_, s_);
  }

  /// Tile column tj as one contiguous rows() x s view (stride == s):
  /// logical columns [tj*s, tj*s + s), with the zero padding past cols()
  /// in the last tile column. Rows past rows() (padding) are not in view.
  MatrixView<T> strip_view(std::size_t tj) {
    assert(tj < tile_cols_);
    return MatrixView<T>(data_.data() + tj * tile_rows_ * s_ * s_, rows_, s_,
                         s_);
  }
  ConstMatrixView<T> strip_view(std::size_t tj) const {
    assert(tj < tile_cols_);
    return ConstMatrixView<T>(data_.data() + tj * tile_rows_ * s_ * s_, rows_,
                              s_, s_);
  }

  /// Address of tile (ti, tj)'s first element: a stable residency key for
  /// as long as this TiledMatrix lives (the same identity contract as
  /// row-major `&B(kb, jb)` keys).
  const T* tile_data(std::size_t ti, std::size_t tj) const {
    return tile_ptr(ti, tj);
  }

  /// Logical element access (element-wise reads and writes; not a hot
  /// path).
  T& at(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return tile_ptr(i / s_, j / s_)[(i % s_) * s_ + j % s_];
  }
  const T& at(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return tile_ptr(i / s_, j / s_)[(i % s_) * s_ + j % s_];
  }

 private:
  T* tile_ptr(std::size_t ti, std::size_t tj) {
    assert(ti < tile_rows_ && tj < tile_cols_);
    return data_.data() + (tj * tile_rows_ + ti) * s_ * s_;
  }
  const T* tile_ptr(std::size_t ti, std::size_t tj) const {
    assert(ti < tile_rows_ && tj < tile_cols_);
    return data_.data() + (tj * tile_rows_ + ti) * s_ * s_;
  }

  std::size_t rows_ = 0, cols_ = 0;  ///< logical shape
  std::size_t s_ = 0;                ///< tile dimension (sqrt m)
  std::size_t tile_rows_ = 0, tile_cols_ = 0;
  std::vector<T, CacheLineAllocator<T>> data_;
};

/// Share `share` of `shares` of an in-place transpose of a contiguous
/// rows x cols matrix whose elements are `seg`-element segments: segment
/// (i, j), at i * cols + j, moves to j * rows + i. A row-major n x (t * s)
/// matrix is an n x t matrix of s-element row segments, and its transpose
/// is strip-major storage: every share of `(data, n, t, s)` leaves exactly
/// the storage `TiledMatrix::pack` gives when n is a multiple of s (tile
/// column j one contiguous n x s panel, stride s), and every share of
/// `(data, t, n, s)` restores row-major; `shares` = 1 is the whole
/// transpose on one thread.
///
/// The permutation splits into disjoint cycles, and share w moves exactly
/// those whose smallest segment index q has q % shares == w, carrying one
/// segment in `carry` (seg elements). It finds them by walking each
/// candidate's cycle until an index below the candidate shows that the
/// cycle is another's, so the shares share no state and may run
/// concurrently, in any order, each with its own `carry`. No second matrix
/// is allocated.
template <typename T>
void transpose_segments(T* data, std::size_t rows, std::size_t cols,
                        std::size_t seg, std::size_t share,
                        std::size_t shares, T* carry) {
  assert(share < shares);
  if (rows <= 1 || cols <= 1) return;  // the identity
  const std::size_t count = rows * cols;
  // Destination q = j * rows + i takes source i * cols + j.
  const auto source = [rows, cols](std::size_t q) {
    return (q % rows) * cols + q / rows;
  };
  for (std::size_t start = share; start < count; start += shares) {
    std::size_t from = source(start);
    if (from == start) continue;
    std::size_t q = from;
    while (q > start) q = source(q);
    if (q != start) continue;  // a smaller index leads this cycle
    std::copy_n(data + start * seg, seg, carry);
    q = start;
    do {
      std::copy_n(data + from * seg, seg, data + q * seg);
      q = from;
      from = source(q);
    } while (from != start);
    std::copy_n(carry, seg, data + q * seg);
  }
}

/// Copy `src` into `dst`; shapes must match.
template <typename T>
void copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  if (src.rows != dst.rows || src.cols != dst.cols) {
    throw std::invalid_argument("copy: shape mismatch");
  }
  for (std::size_t i = 0; i < src.rows; ++i) {
    for (std::size_t j = 0; j < src.cols; ++j) dst(i, j) = src(i, j);
  }
}

/// Run `body(strips, np)` on the square matrix `d` held in strip-major
/// storage for tile side `s` (TiledMatrix's layout): np is d.rows rounded
/// up to a multiple of s, block column j the contiguous np x s panel at
/// strips + j * np * s (stride s), and block (i, j) tile i of that panel.
/// The GEP rounds of transitive closure and Gaussian elimination run
/// there, so every block a task writes is one contiguous range rather
/// than s-element pieces of rows that other lanes write too.
///
/// A contiguous `d` (stride == cols) whose side is a multiple of s is
/// permuted in place and back after `body` returns, also when it throws,
/// so the caller never sees strip-major data. Each permutation runs on
/// every lane of `exec` at once (`for_each_lane`), each share moving its
/// own cycles (`transpose_segments`) with its own s-element carry
/// segment; all carries are allocated before the shares start, so no
/// share can fail halfway. A copy would add a second matrix to the peak
/// resident set.
///
/// Any other `d` — a ragged side, or a view into a wider matrix, whose
/// neighbouring columns an in-place permutation would scramble — is
/// packed into a zero-padded TiledMatrix, and the logical part copied
/// back after `body` returns; when `body` throws, `d` keeps its input.
template <typename T, typename Exec, typename Body>
void with_strip_major(Exec& exec, MatrixView<T> d, std::size_t s,
                      Body&& body) {
  const std::size_t n = d.rows;
  assert(d.cols == n && s > 0);
  if (n == 0 || (n % s == 0 && d.stride == n)) {
    const std::size_t t = n / s;
    // for_each_lane deals at most one share per lane plus the caller's.
    std::vector<T, CacheLineAllocator<T>> carry((exec.size() + 1) * s);
    const auto permute = [&](std::size_t rows, std::size_t cols) {
      if (rows <= 1 || cols <= 1) return;  // the identity
      exec.for_each_lane([&](std::size_t share, std::size_t shares) {
        transpose_segments(d.data, rows, cols, s, share, shares,
                           carry.data() + share * s);
      });
    };
    permute(n, t);
    try {
      body(d.data, n);
    } catch (...) {
      permute(t, n);
      throw;
    }
    permute(t, n);
    return;
  }
  TiledMatrix<T> packed = TiledMatrix<T>::pack(d.as_const(), s);
  body(packed.strip_view(0).data, packed.tile_rows() * s);
  for (std::size_t tj = 0; tj < packed.tile_cols(); ++tj) {
    const std::size_t width = std::min(s, n - tj * s);
    copy(packed.strip_view(tj).subview(0, 0, n, width).as_const(),
         d.subview(0, tj * s, n, width));
  }
}

/// Materialize a view as an owning matrix.
template <typename T>
Matrix<T> materialize(ConstMatrixView<T> src) {
  Matrix<T> out(src.rows, src.cols);
  copy(src, out.view());
  return out;
}

/// Transpose into a fresh matrix.
template <typename T>
Matrix<T> transposed(ConstMatrixView<T> src) {
  Matrix<T> out(src.cols, src.rows);
  for (std::size_t i = 0; i < src.rows; ++i) {
    for (std::size_t j = 0; j < src.cols; ++j) out(j, i) = src(i, j);
  }
  return out;
}

/// Mutable-view overloads (template deduction does not apply the implicit
/// MatrixView -> ConstMatrixView conversion).
template <typename T>
Matrix<T> materialize(MatrixView<T> src) {
  return materialize(src.as_const());
}
template <typename T>
Matrix<T> transposed(MatrixView<T> src) {
  return transposed(src.as_const());
}

}  // namespace tcu
