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

From ``PARALLEL_ENTRIES`` kernel entries on, a call splits the rows of
``Z`` into one contiguous range per worker thread, each range starting at
a multiple of a tile of ``TILE_BLOCKS`` blocks; the fit's product
``K @ beta`` (:func:`row_product`) splits its rows at multiples of
``ROW_ALIGN`` the same way. The workers are daemon threads, one per CPU
the process may run on, each pinned to its CPU, started on the first such
call (a forked child starts its own); smaller calls, and every call on
one CPU, run in the calling thread. Neither split changes a bit: a
Gaussian entry depends only on its two points, every product ``K @ W``
is taken over the same block of rows on either path, and a
matrix-vector product split at multiples of ``ROW_ALIGN`` rows keeps its
bits at one BLAS thread.
"""

from __future__ import annotations

import enum
import os
import queue
import threading
from dataclasses import dataclass
from itertools import pairwise

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
# 64 KiB to 4 MiB: 64 KiB ran 2.3x and 1 MiB 1.2x slower. On the parallel
# path a worker evaluates TILE_BLOCKS blocks per pass, so its tile and
# scratch take TILE_BLOCKS * BLOCK_BYTES: there, on two pinned workers, that
# ``predict`` took 0.84-1.00 s with four-block tiles and 1.42-1.58 s with
# one-block tiles, whose hand-offs of the interpreter lock cost 0.3 s of
# system time, against 1.13-1.30 s on one thread.
BLOCK_BYTES = 1 << 18
TILE_BLOCKS = 4

# Calls over fewer kernel entries than this (len(Z) * len(X), or the size of
# the matrix of row_product) run inline in the calling thread: the grids'
# folds at n = 320 and short commands start no thread.
PARALLEL_ENTRIES = 1 << 20
# row_product splits its rows at multiples of this: a matrix-vector product
# of OpenBLAS's Haswell kernels split there keeps the whole product's bits.
ROW_ALIGN = 8
# kernel_product multiplies by a weight matrix this many columns at a time,
# and the harness trains a configuration's columns in chunks of whole
# multiples of it. OpenBLAS's Haswell GEMM computes each full group of 8
# columns with one kernel, but a product's last B mod 8 columns, and products
# of a few columns, with others: without the groups a column's bits would
# depend on the width of its product. test_chunk_width_keeps_the_bits in
# tests/test_harness.py holds this premise.
COLUMN_GROUP = 8


def block_rows(n: int) -> int:
    """Rows of ``Z`` per block against ``n`` support points: a block and
    its scratch, 8 bytes per entry each, take at most ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (16 * max(n, 1)))


# One job queue per worker thread, started on first use; [] with one CPU. The
# pool persists across calls: on a 2-vCPU Xeon, a row_product at n = 3000 took
# 1.9-2.0 ms on the pool against 4.1-4.7 ms with a pinned thread started per
# call (2.2 ms unpinned).
_workers: list | None = None
_workers_lock = threading.Lock()


def _serve(cpu: int | None, jobs) -> None:
    """A worker: pinned to ``cpu`` where the platform can pin, it runs
    ``fn(*args)`` for each ``(fn, args, done)`` job and puts None or the
    raised exception on ``done``, until it takes None. It drops the job's
    references before it signals, so no array outlives its call here."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU was withdrawn since the pool read the mask: run unpinned
            pass
    while (job := jobs.get()) is not None:
        fn, args, done = job
        del job
        try:
            fn(*args)
            result = None
        except BaseException as exc:  # re-raised in the caller
            result = exc
        del fn, args
        done.put(result)
        del done, result


def _start(cpus: list) -> list:
    """Start one daemon worker per entry of ``cpus`` (a CPU to pin it to,
    or None); their job queues, in that order."""
    queues = [queue.SimpleQueue() for _ in cpus]
    for cpu, jobs in zip(cpus, queues):
        threading.Thread(target=_serve, args=(cpu, jobs), name=f"satsvm-kernel-{cpu}", daemon=True).start()
    return queues


def _pool() -> list:
    """The job queues of the workers, one per allowed CPU, each pinned to
    its CPU where the platform can pin, started on the first call; an
    empty list when one CPU is allowed."""
    global _workers
    with _workers_lock:
        if _workers is None:
            if hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity"):
                cpus = sorted(os.sched_getaffinity(0))
            else:
                cpus = [None] * (os.cpu_count() or 1)
            _workers = _start(cpus) if len(cpus) > 1 else []
        return _workers


def _forget_pool() -> None:
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


# a forked child has none of its parent's threads: it starts its own pool
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(total: int, align: int, entries: int) -> list | None:
    """Contiguous ``(lo, hi)`` row ranges of ``0:total``, at most one per
    worker, each starting at a multiple of ``align`` and none of one row
    unless ``total`` is 1; None when the call is to run inline: fewer than
    ``PARALLEL_ENTRIES`` entries, or one CPU."""
    workers = len(_pool()) if entries >= PARALLEL_ENTRIES else 0
    if workers < 2:
        return None
    units = -(-total // align)
    bounds = [min(total, align * (units * i // workers)) for i in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in pairwise(bounds) if lo < hi]
    if len(ranges) > 1 and ranges[-1][1] - ranges[-1][0] == 1:
        # numpy takes a one-row product as a dot product, which rounds
        # otherwise than the same row of a matrix-vector product
        ranges[-2:] = [(ranges[-2][0], total)]
    return ranges


def _run(fn, ranges: list) -> None:
    """``fn(lo, hi)`` for each range, range i on worker i; returns when
    all are done, re-raising the first exception a worker raised."""
    done = queue.SimpleQueue()
    for jobs, bounds in zip(_pool(), ranges):
        jobs.put((fn, bounds, done))
    errors = [e for e in [done.get() for _ in ranges] if e is not None]
    if errors:
        try:
            raise errors[0]
        finally:
            del errors  # the traceback holds this frame: no cycle keeps the arrays


def row_product(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``K @ b`` for a vector or one-column ``b``, with the rows split over
    the workers at multiples of ``ROW_ALIGN`` when ``K`` has
    ``PARALLEL_ENTRIES`` entries or more, bit for bit at one BLAS thread.
    Other products are the one ``K @ b``: the bits of a row split of a
    wider product are unproven."""
    ranges = _split(len(K), ROW_ALIGN, np.size(K)) if np.ndim(b) == 1 or np.shape(b)[1] == 1 else None
    if ranges is None:
        return K @ b
    out = np.empty((len(K), *np.shape(b)[1:]))
    _run(lambda lo, hi: np.matmul(K[lo:hi], b, out=out[lo:hi]), ranges)
    return out


def _times(block: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """``block @ W`` into ``out``, one product per group of ``COLUMN_GROUP``
    columns of ``W``, so that a column's bits do not depend on how many
    columns ``W`` has; up to 8 columns are one product, a vector's too."""
    for c in range(0, W.shape[1], COLUMN_GROUP):
        out[:, c : c + COLUMN_GROUP] = block @ W[:, c : c + COLUMN_GROUP]


def _rows(spec: KernelSpec, X: np.ndarray, XT: np.ndarray, Z: np.ndarray, lo: int, hi: int, tile: int,
          tiles: tuple, out: np.ndarray | None, W: np.ndarray | None, product: np.ndarray | None) -> None:
    """Kernel values between rows ``lo:hi`` of ``Z`` and the rows of ``X``:
    written to the same rows of ``out`` when it is given, and, when ``W``
    is given, each :func:`block_rows` block of them times ``W`` written to
    the block's rows of ``product``. ``lo`` is a multiple of the block
    rows. The package's one kernel evaluation; shapes are not checked here.

    A linear block is a matrix product. A Gaussian tile of ``tile`` rows
    (a multiple of the block rows) is ``exp(D * (-1/sigma**2))`` over the
    squared distances ``D``, the explicit differences squared and added
    feature by feature from the left: with ``XT`` the feature-major
    ``X``, each feature is one pass of three ufuncs over a contiguous tile
    of rows through the scratch tile ``tiles[0]``, into the rows of
    ``out``, else into the tile ``tiles[1]``, reused for each tile of rows.
    An entry's bits therefore depend on neither the tile
    nor the order of its rows and columns: ``K(X, Z)`` is ``K(Z, X).T``
    bit for bit. Each product is taken over the same block of rows
    whatever the tile, since a product's bits depend on its rows, and by
    :func:`_times` over the n-by-B ``W``.
    """
    n, m = X.shape
    rows = block_rows(n)
    if spec.kind is KernelKind.LINEAR:
        for start in range(lo, hi, rows):
            _times(Z[start : start + rows] @ X.T, W, product[start : start + rows])
        return
    scratch, own = tiles
    for start in range(lo, hi, tile):
        z = Z[start : min(start + tile, hi)]
        D = own[: len(z)] if out is None else out[start : start + len(z)]
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
        np.exp(D, out=D)
        if W is not None:
            for b in range(0, len(z), rows):
                _times(D[b : b + rows], W, product[start + b : start + b + rows])


def _evaluate(spec: KernelSpec, X: np.ndarray, Z: np.ndarray, out=None, W=None, product=None) -> None:
    """:func:`_rows` over all of ``Z``: inline one block per tile, or, from
    ``PARALLEL_ENTRIES`` entries on, in one contiguous range of tiles of
    ``TILE_BLOCKS`` blocks per worker."""
    rows = block_rows(len(X))
    XT = np.ascontiguousarray(X.T) if spec.kind is KernelKind.GAUSSIAN else None
    ranges = _split(len(Z), TILE_BLOCKS * rows, len(Z) * len(X))
    tile = rows if ranges is None else TILE_BLOCKS * rows

    def tiles(lo: int, hi: int) -> tuple:
        # taken in the calling thread: freed tiles a worker took itself would
        # stay resident in its own malloc arena (1 MB more peak RSS in train)
        if spec.kind is KernelKind.LINEAR:
            return None, None
        shape = (min(tile, hi - lo), len(X))
        return np.empty(shape), np.empty(shape) if out is None else None

    if ranges is None:
        _rows(spec, X, XT, Z, 0, len(Z), tile, tiles(0, len(Z)), out, W, product)
    else:
        taken = {lo: tiles(lo, hi) for lo, hi in ranges}
        _run(lambda lo, hi: _rows(spec, X, XT, Z, lo, hi, tile, taken[lo], out, W, product), ranges)


def _points(X, Z) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ShapeError("point dimension must match sample matrix", X.shape, Z.shape)
    return X, Z


def kernel_block(spec: KernelSpec, X, Z) -> np.ndarray:
    """The len(Z)-by-len(X) block of kernel values between the rows of
    ``Z`` and the rows of ``X``.

    A Gaussian block is filled in place by :func:`_rows`, split over the
    workers from ``PARALLEL_ENTRIES`` entries on. A linear block is one
    product ``Z @ X.T``, since a product split by rows may round
    differently.
    """
    X, Z = _points(X, Z)
    if spec.kind is KernelKind.LINEAR:
        return Z @ X.T
    K = np.empty((len(Z), len(X)))
    _evaluate(spec, X, Z, out=K)
    return K


def kernel_product(spec: KernelSpec, X, Z, W) -> np.ndarray:
    """``K(Z, X) @ W``, the kernel values between the rows of ``Z`` and the
    rows of ``X`` times one weight (vector ``W``) or one weight row
    (matrix ``W``) per row of ``X``.

    The product is taken one :func:`block_rows` block at a time, so the
    len(Z)-by-len(X) matrix is never held whole: a Gaussian tile and its
    scratch take at most ``BLOCK_BYTES``, or ``TILE_BLOCKS`` times that
    per worker on the parallel path. Each block's rows are the bits of
    :func:`kernel_block` over the same rows of ``Z``, times ``W``, on
    either path. A matrix ``W`` is taken ``COLUMN_GROUP`` columns at a
    time, so a column of a full group has the same bits whatever the
    width of ``W``.
    """
    X, Z = _points(X, Z)
    W = np.asarray(W, dtype=float)
    if W.ndim not in (1, 2) or W.shape[0] != len(X):
        raise ShapeError("one weight or weight row per point", W.shape, X.shape)
    out = np.empty((len(Z), *W.shape[1:]))
    # a vector W as one column: numpy takes either as the same matrix-vector product
    cols = W.shape[1] if W.ndim == 2 else 1
    _evaluate(spec, X, Z, W=W.reshape(len(X), cols), product=out.reshape(len(Z), cols))
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
