"""Kernel evaluation and Gram-matrix construction.

The Gaussian kernel is ``exp(-||x - z||**2 / sigma**2)``; note the width
enters squared in the denominator. Gram matrices are materialized in
full because the trainer repeatedly needs arbitrary rows; construction
refuses above a documented size cap to keep memory bounded.
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


@dataclass(frozen=True)
class KernelMatrix:
    """Precomputed symmetric Gram matrix over one sample set.

    ``entries`` is read-only, so the matrix can be shared across threads
    and fits freely.
    """

    n: int
    entries: np.ndarray
    spec: KernelSpec


def _kernel_block(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """K(x, z) for every row z of ``Z`` (block rows) and x of ``X`` (columns).

    The package's one kernel evaluation. The Gaussian is
    ``exp(-(d @ d) * (1/sigma**2))`` over the explicit differences
    ``d = x - z``, so Gram rows and decision values use the same
    arithmetic. Shapes are not checked here.
    """
    if spec.kind is KernelKind.LINEAR:
        return Z @ X.T
    d = X - Z[:, None, :]
    return np.exp(-np.einsum("kij,kij->ki", d, d) * (1.0 / (spec.sigma * spec.sigma)))


def kernel_block(spec: KernelSpec, X, Z) -> np.ndarray:
    """The len(Z)-by-len(X) block of kernel values between the rows of
    ``Z`` and the rows of ``X``."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ShapeError("point dimension must match sample matrix", X.shape, Z.shape)
    return _kernel_block(spec, X, Z)


def gram_matrix(spec: KernelSpec, X) -> KernelMatrix:
    """Build the n-by-n kernel matrix of the rows of ``X``.

    The upper triangle is computed once and mirrored, so symmetry holds
    bit-exactly. Gaussian diagonals are exactly 1.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError("sample matrix must be 2-d and non-empty", X.shape)
    n = X.shape[0]
    if n > GRAM_CAPACITY:
        raise CapacityError(
            f"gram matrix for n={n} samples exceeds the {GRAM_CAPACITY} cap; "
            "subsample or raise the cap knowingly"
        )
    if spec.kind is KernelKind.LINEAR:
        G = X @ X.T
        K = np.triu(G) + np.triu(G, 1).T
    else:
        K = np.empty((n, n), dtype=float)
        for i in range(n):
            row = _kernel_block(spec, X[i + 1 :], X[i : i + 1])[0]
            K[i, i] = 1.0
            K[i, i + 1 :] = row
            K[i + 1 :, i] = row
    K.setflags(write=False)
    return KernelMatrix(n=n, entries=K, spec=spec)
