"""Kernel evaluation and Gram-matrix construction.

The Gaussian kernel is ``exp(-||x - z||**2 / sigma**2)``; note the width
enters squared in the denominator. The squared distance is the explicit
differences, squared and added feature by feature from left to right, so
an entry's bits depend only on its two points, and its relative error
stays near ``m u`` (``u = 2**-53``) even for near-duplicate points, where
the expansion ``|x|**2 + |z|**2 - 2 x.z`` leaves an absolute error of
order ``u |x|**2`` that the narrowest widths would blow up. Version 0.1.0
summed the same squares in ``einsum``'s order; both sums lie within the
recursive-summation bound ``m u D`` of the exact squared distance ``D``,
so a Gaussian entry ``K`` differs from 0.1.0's by at most
``2 (m + 1) u (D / sigma**2) K``, the scaling's rounding included, plus
the last-place rounding of ``exp``.

Gram matrices are materialized in full, as plain read-only n-by-n arrays,
because the trainer repeatedly needs arbitrary rows; a Gaussian Gram is
built in place a block of rows at a time and a linear Gram is one matrix
product, so either is the only n-by-n array its build holds, and
construction refuses above a documented size cap to keep memory bounded.
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
# block that each feature's squared differences pass through. Gaussian
# Grams and decision values use the same budget. On a 2-vCPU Xeon with
# m = 10, decision values for 20000 queries against 3000 support points
# (5 rows per block) were fastest at this budget among 64 KiB to 4 MiB:
# 64 KiB ran 2.3x and 1 MiB 1.2x slower.
BLOCK_BYTES = 1 << 18


def block_rows(n: int) -> int:
    """Rows of ``Z`` per block against ``n`` support points: a block and
    its scratch, 8 bytes per entry each, take at most ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


def _squared_distances(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``(x_0 - z_0)**2 + (x_1 - z_1)**2 + ...``, summed left to right over
    the features, for every row z of ``Z`` (rows) and x of ``X`` (columns).

    The support points are taken feature-major once (a Fortran-ordered
    ``X`` without a copy), and each feature is one pass of three ufuncs
    over a contiguous block of rows. An entry's bits therefore depend on
    neither the block shape nor the order of its rows and columns:
    ``D(X, Z)`` is ``D(Z, X).T`` bit for bit.
    """
    n, m = X.shape
    if m == 0:
        return np.zeros((Z.shape[0], n))
    XT = np.ascontiguousarray(X.T)
    out = np.empty((Z.shape[0], n))
    rows = block_rows(n)
    scratch = np.empty((min(rows, Z.shape[0]), n))
    for start in range(0, Z.shape[0], rows):
        z = Z[start : start + rows]
        D, t = out[start : start + rows], scratch[: len(z)]
        np.subtract(XT[0], z[:, :1], out=D)
        np.multiply(D, D, out=D)
        for j in range(1, m):
            np.subtract(XT[j], z[:, j : j + 1], out=t)
            np.multiply(t, t, out=t)
            np.add(D, t, out=D)
    return out


def _kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K(x, z) for every row z of ``Z`` (block rows) and x of ``X`` (columns).

    The package's one kernel evaluation. The Gaussian is
    ``exp(D * (-1/sigma**2))`` over the feature-by-feature sums ``D`` of
    :func:`_squared_distances`, so Gram matrices, cross-validation test
    blocks and decision values use the same arithmetic. Shapes are not
    checked here.
    """
    if spec.kind is KernelKind.LINEAR:
        return Z @ X.T
    D = _squared_distances(X, Z)
    np.multiply(D, -1.0 / (spec.sigma * spec.sigma), out=D)
    return np.exp(D, out=D)


def kernel_block(spec: KernelSpec, X, Z) -> np.ndarray:
    """The len(Z)-by-len(X) block of kernel values between the rows of
    ``Z`` and the rows of ``X``."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ShapeError("point dimension must match sample matrix", X.shape, Z.shape)
    return _kernel_block(spec, X, Z)


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
    1, and it is read-only, so one Gram can be shared by many fits. A
    Gaussian Gram is built as the upper triangle, one block of rows at a
    time, each block mirrored below the diagonal. Either kind's Gram is
    the only n-by-n array its build allocates.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("sample matrix must be 2-d and non-empty", X.shape)
    n = X.shape[0]
    check_capacity(n)
    if spec.kind is KernelKind.LINEAR:
        # numpy computes a C- or F-contiguous matrix times its own
        # transpose as one symmetric product, so the entries mirror bit
        # for bit; other strides would take a general product
        X = np.ascontiguousarray(X)
        K = X @ X.T
    else:
        K = np.empty((n, n), dtype=float)
        i = 0
        while i < n:
            # a block spans the n - i columns from the diagonal on, so it
            # takes more rows as i grows, within the same byte budget
            rows = block_rows(n - i)
            # x - z and z - x square to the same bits, so the block's
            # square on the diagonal is symmetric as computed
            block = _kernel_block(spec, X[i:], X[i : i + rows])
            K[i:, i : i + rows] = block.T
            K[i : i + rows, i:] = block
            i += rows
    K.setflags(write=False)
    return K
