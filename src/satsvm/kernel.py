"""Kernel evaluation and Gram-matrix construction.

The Gaussian kernel is ``exp(-||x - z||**2 / sigma**2)``; note the width
enters squared in the denominator. One loop over blocks of rows
evaluates every kernel value the package uses: Gram matrices, and
decision values, for ``predict`` and the cross-validation test parts
alike (:func:`gram_matrix` through :func:`kernel_block`, and
:func:`kernel_product`). The squared distance is
the explicit differences, squared and added feature by feature from left
to right, so an entry's bits depend only on its two points, and its
relative error stays near ``m u`` (``u = 2**-53``) even for
near-duplicate points, where the expansion ``|x|**2 + |z|**2 - 2 x.z``
leaves an absolute error of order ``u |x|**2`` that the narrowest widths
would blow up. Version 0.1.0 summed the same squares in ``einsum``'s
order; both sums lie within the recursive-summation bound ``m u D`` of
the exact squared distance ``D``, so a Gaussian entry ``K`` differs from
0.1.0's by at most ``2 (m + 1) u (D / sigma**2) K``, the scaling's
rounding included, plus the last-place rounding of ``exp``.

Gram matrices are materialized in full, as plain read-only n-by-n arrays,
because the trainer repeatedly needs arbitrary rows; a Gaussian Gram is
the full square, built in place a block of rows at a time, and a linear
Gram is one symmetric matrix product, so either is the only n-by-n array
its build holds, and construction refuses above a documented size cap to
keep memory bounded. Decision values never hold the query-by-support
matrix: :func:`kernel_product` multiplies each block by the coefficients
as it comes, so a cross-validation fold holds its Gram and no test
block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError

# n*n float64 entries; 20000 keeps the matrix around 3 GB worst case.
GRAM_CAPACITY = 20000


class KernelKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", KernelKind(self.kind))
        if self.kind is KernelKind.GAUSSIAN and not self.sigma > 0:
            raise ParameterError(f"gaussian kernel width sigma must be > 0, got sigma={self.sigma}")

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "KernelSpec":
        return cls(KernelKind.GAUSSIAN, sigma=sigma)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(KernelKind.LINEAR)


# Largest size of one block of squared distances together with the scratch
# block that each feature's squared differences pass through, the budget of
# every Gaussian block: Gram rows and decision values. On a
# 2-vCPU Xeon with m = 10, decision values for 20000 queries against 3000
# support points (5 rows per block) were fastest at this budget among
# 64 KiB to 4 MiB: 64 KiB ran 2.3x and 1 MiB 1.2x slower.
BLOCK_BYTES = 1 << 18


def block_rows(n: int) -> int:
    """Rows of ``Z`` per block against ``n`` support points: a block and
    its scratch, 8 bytes per entry each, take at most ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


def _blocks(spec: KernelSpec, X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None):
    """Yield ``(start, K)`` for each block of :func:`block_rows` rows of
    ``Z``, ``K`` being the kernel values between those rows (block rows)
    and the rows of ``X`` (columns): the package's one loop over row
    blocks and its one kernel evaluation. Shapes are not checked here.

    A linear block is a matrix product. A Gaussian block is
    ``exp(D * (-1/sigma**2))`` over the squared distances ``D``, the
    explicit differences squared and added feature by feature from the
    left. ``X`` is taken feature-major once per call, and each feature is
    one pass of three ufuncs over a contiguous block of rows, through one
    reused scratch block. A block is computed in the rows of ``out`` when
    it is given, else in one reused array, valid until the next block is
    yielded. An entry's bits therefore depend on neither the block shape
    nor the order of its rows and columns: ``K(X, Z)`` is ``K(Z, X).T``
    bit for bit.
    """
    n, m = X.shape
    rows = block_rows(n)
    if spec.kind is KernelKind.LINEAR:
        for start in range(0, len(Z), rows):
            yield start, Z[start : start + rows] @ X.T
        return
    XT = np.ascontiguousarray(X.T)
    scratch = np.empty((min(rows, len(Z)), n))
    own = np.empty_like(scratch) if out is None else None
    for start in range(0, len(Z), rows):
        z = Z[start : start + rows]
        D = own[: len(z)] if out is None else out[start : start + rows]
        t = scratch[: len(z)]
        if m == 0:
            D.fill(0.0)
        for j in range(m):
            # the first feature's squares start the sum in D
            np.subtract(XT[j], z[:, j : j + 1], out=t)
            np.multiply(t, t, out=t if j else D)
            if j:
                np.add(D, t, out=D)
        np.multiply(D, -1.0 / (spec.sigma * spec.sigma), out=D)
        yield start, np.exp(D, out=D)


def _points(X, Z) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ShapeError("point dimension must match sample matrix", X.shape, Z.shape)
    return X, Z


def kernel_block(spec: KernelSpec, X, Z) -> np.ndarray:
    """The len(Z)-by-len(X) block of kernel values between the rows of
    ``Z`` and the rows of ``X``.

    A Gaussian block is filled in place by the blocks of :func:`_blocks`.
    A linear block is one product ``Z @ X.T``, since a product split by
    rows may round differently.
    """
    X, Z = _points(X, Z)
    if spec.kind is KernelKind.LINEAR:
        return Z @ X.T
    K = np.empty((len(Z), len(X)))
    for _ in _blocks(spec, X, Z, out=K):
        pass
    return K


def kernel_product(spec: KernelSpec, X, Z, W) -> np.ndarray:
    """``K(Z, X) @ W``, the kernel values between the rows of ``Z`` and the
    rows of ``X`` times one weight (vector ``W``) or one weight row
    (matrix ``W``) per row of ``X``.

    The product is taken one block of :func:`_blocks` at a time, so the
    len(Z)-by-len(X) matrix is never held whole: a Gaussian block and its
    scratch take at most ``BLOCK_BYTES``. Each block's rows are the bits
    of :func:`kernel_block` over the same rows of ``Z``, times ``W``.
    """
    X, Z = _points(X, Z)
    W = np.asarray(W, dtype=float)
    if W.ndim not in (1, 2) or W.shape[0] != len(X):
        raise ShapeError("one weight or weight row per point", W.shape, X.shape)
    out = np.empty((len(Z), *W.shape[1:]))
    for start, K in _blocks(spec, X, Z):
        out[start : start + len(K)] = K @ W
    return out


def check_capacity(n: int) -> None:
    """Raise ``CapacityError`` if an n-by-n Gram matrix exceeds the cap."""
    if n > GRAM_CAPACITY:
        raise CapacityError(
            f"gram matrix for n={n} samples exceeds the {GRAM_CAPACITY} cap; "
            "subsample or raise the cap knowingly"
        )


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Build the n-by-n kernel matrix of the rows of ``X``.

    The matrix is symmetric bit-exactly, Gaussian diagonals are exactly
    1, and it is read-only, so one Gram can be shared by many fits. The
    Gram is :func:`kernel_block` of ``X`` against itself. A Gaussian Gram
    is the full square: an entry's bits depend only on its two points,
    which give ``x - z`` and ``z - x`` the same square, and a point's
    distance to itself is 0, whose kernel value is 1. A linear Gram is
    the one product ``X @ X.T``, which numpy takes as symmetric. Either
    kind's Gram is the only n-by-n array its build allocates.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("sample matrix must be 2-d and non-empty", X.shape)
    check_capacity(X.shape[0])
    # numpy computes a C- or F-contiguous matrix times its own transpose as
    # one symmetric product, so a linear Gram's entries mirror bit for bit;
    # other strides would take a general product
    X = np.ascontiguousarray(X)
    K = kernel_block(spec, X, X)
    K.setflags(write=False)
    return K
