"""Kernel evaluation and Gram-matrix construction.

The Gaussian kernel is ``exp(-||x - z||**2 / sigma**2)``; note the width
enters squared in the denominator. Gram matrices are materialized in
full, as plain read-only n-by-n arrays, because the trainer repeatedly
needs arbitrary rows; a Gaussian
Gram is built in place a block of rows at a time and a linear Gram is
one matrix product, so either is the only n-by-n array its build holds,
and construction refuses above a documented size cap to keep memory
bounded.
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


# Largest size of the explicit differences x - z that one pass of the
# squared distances holds; more rows of ``Z`` are taken a block at a time.
# Gaussian Grams and decision values use the same row blocks. On a 2-vCPU
# Xeon with m = 10 this was near the fastest budget: 1 query row per block
# at 3000 support points (4 MiB blocks ran 14% slower) and 16 rows at 200
# (1.7x faster than 1).
BLOCK_BYTES = 1 << 18


def _squared_distances(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``(d @ d)`` over the explicit differences ``d = x - z``, for every
    row z of ``Z`` (rows) and x of ``X`` (columns)."""
    out = np.empty((Z.shape[0], X.shape[0]))
    rows = max(1, BLOCK_BYTES // max(X.nbytes, 1))
    for start in range(0, Z.shape[0], rows):
        d = X - Z[start : start + rows, None, :]
        np.einsum("kij,kij->ki", d, d, out=out[start : start + rows])
    return out


def _kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K(x, z) for every row z of ``Z`` (block rows) and x of ``X`` (columns).

    The package's one kernel evaluation. The Gaussian is
    ``exp(-(d @ d) * (1/sigma**2))`` over the explicit differences
    ``d = x - z``, so Gram matrices and decision values use the same
    arithmetic. Shapes are not checked here.
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
    1, and it is read-only, so one Gram can be shared by many fits. A Gaussian Gram is built as the upper triangle, a
    :func:`kernel_block` of ``BLOCK_BYTES`` worth of rows at a time, each
    block mirrored below the diagonal. Either kind's Gram is the only
    n-by-n array its build allocates.
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
        rows = max(1, BLOCK_BYTES // max(X.nbytes, 1))
        for i in range(0, n, rows):
            # x - z and z - x square to the same bits, so the block's
            # square on the diagonal is symmetric as computed
            block = _kernel_block(spec, X[i:], X[i : i + rows])
            K[i:, i : i + rows] = block.T
            K[i : i + rows, i:] = block
    K.setflags(write=False)
    return K
