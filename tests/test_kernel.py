import gc
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satsvm.kernel as kernel
from conftest import forced_workers, one_blas_thread_env
from satsvm import (
    CapacityError,
    KernelSpec,
    ShapeError,
    gram_matrix,
    kernel_block,
)
from satsvm.kernel import KernelKind, kernel_product, row_product


def _k(spec, x, z) -> float:
    """One kernel value, as the 1-by-1 block of two single-row batches."""
    return kernel_block(spec, np.atleast_2d(x), np.atleast_2d(z))[0, 0]


class TestKernelEval:
    def test_gaussian_zero_distance(self):
        x = np.array([0.3, -1.2, 4.0])
        assert _k(KernelSpec.gaussian(1.0), x, x) == 1.0

    def test_gaussian_known_value(self):
        k = _k(KernelSpec.gaussian(2.0), np.array([0.0, 0.0]), np.array([2.0, 0.0]))
        assert k == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_linear_dot(self):
        assert _k(KernelSpec.linear(), np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_dimension_mismatch_reports_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(1, 3\)"):
            kernel_block(KernelSpec.gaussian(1.0), np.zeros((1, 2)), np.zeros((1, 3)))

    def test_sigma_validation(self):
        from satsvm import ParameterError

        with pytest.raises(ParameterError, match="sigma"):
            KernelSpec.gaussian(0.0)

    @pytest.mark.parametrize("sigma", [7.4e-155, 1e-160, 1e-200, 1e-320, 1.35e154, 1e155, math.inf])
    def test_sigma_whose_inverse_square_is_zero_or_inf_is_rejected(self, sigma):
        from satsvm import ParameterError

        with pytest.raises(ParameterError, match="1/sigma\\*\\*2 must be finite and nonzero"):
            KernelSpec.gaussian(sigma)
        if math.isfinite(sigma):
            KernelSpec(KernelKind.LINEAR, sigma=sigma)  # sigma does not enter a linear kernel
        else:  # but a model file records it
            with pytest.raises(ParameterError, match="^sigma must be finite, got sigma=inf$"):
                KernelSpec(KernelKind.LINEAR, sigma=sigma)

    def test_sigma_at_the_ends_of_the_range(self):
        # the narrowest width overflows the scaled distances to -inf, whose
        # kernel value is 0.0, with no warning; the widest gives kernel values
        # that round to 1.0 below a distance of about 1e154
        X = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        assert (gram_matrix(KernelSpec.gaussian(7.5e-155), X) == np.eye(3)).all()
        assert (gram_matrix(KernelSpec.gaussian(1.3e154), X) == 1.0).all()


class TestGramMatrix:
    def test_identical_rows(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        assert (K == np.ones((2, 2))).all()

    def test_linear_identity_rows(self):
        X = np.eye(2)
        K = gram_matrix(KernelSpec.linear(), X)
        assert (K == np.eye(2)).all()

    def test_gaussian_chain(self):
        X = np.array([[0.0], [1.0], [2.0]])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        assert (np.diag(K) == 1.0).all()
        assert K[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert K[1, 2] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert K[0, 2] == pytest.approx(math.exp(-4.0), abs=1e-15)

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(11)
        # a strided view, which numpy would multiply by its transpose
        # with a general (not bit-symmetric) product
        for X in (rng.standard_normal((30, 4)), rng.standard_normal((400, 64))[::2, ::2]):
            for spec in (KernelSpec.gaussian(0.7), KernelSpec.linear()):
                K = gram_matrix(spec, X)
                assert (K == K.T).all()

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.7), KernelSpec.linear()], ids=["gaussian", "linear"])
    def test_build_holds_one_gram(self, spec):
        X = np.random.default_rng(12).standard_normal((1000, 10))
        gram_bytes = 8 * 1000 * 1000
        tracemalloc.start()
        try:
            gram_matrix(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gram_bytes

    def test_gaussian_diagonal_exactly_one_and_range(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 3))
        K = gram_matrix(KernelSpec.gaussian(1.3), X)
        assert (np.diag(K) == 1.0).all()
        assert (K > 0).all() and (K <= 1.0).all()

    def test_positive_semidefinite_smoke(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((5, 2))
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        assert np.linalg.eigvalsh(K).min() >= -1e-9

    def test_entries_read_only(self):
        K = gram_matrix(KernelSpec.gaussian(1.0), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            K[0, 0] = 5.0

    def test_ragged_and_empty_rejected(self):
        with pytest.raises(ShapeError):
            gram_matrix(KernelSpec.gaussian(1.0), np.zeros((0, 2)))
        with pytest.raises((ShapeError, ValueError)):
            gram_matrix(KernelSpec.gaussian(1.0), [[1.0, 2.0], [3.0]])

    def test_capacity_cap(self):
        X = np.zeros((20001, 1))
        with pytest.raises(CapacityError, match="20000"):
            gram_matrix(KernelSpec.gaussian(1.0), X)


def _feature_order_gram(spec, X):
    """Frozen scalar reference for the Gaussian Gram: every squared
    distance added up pair by pair, feature by feature from the left, then
    scaled by -1/sigma**2 and exponentiated."""
    points = X.tolist()
    D = np.empty((len(points), len(points)))
    for i, x in enumerate(points):
        for j, z in enumerate(points):
            s = 0.0
            for a, b in zip(x, z):
                d = a - b
                s += d * d
            D[i, j] = s
    return np.exp(D * (-1.0 / (spec.sigma * spec.sigma)))


def _parent_gram_rows(spec, X):
    """Frozen copy of version 0.1.0's Gaussian Gram row loop, which summed
    the squares in ``einsum``'s order; kept as the reference that the
    feature-order Gram must stay within the summation bound of."""
    n = X.shape[0]
    K = np.empty((n, n), dtype=float)
    inv_s2 = 1.0 / (spec.sigma * spec.sigma)
    for i in range(n):
        d = X[i + 1 :] - X[i]
        row = np.exp(-np.einsum("ij,ij->i", d, d) * inv_s2)
        K[i, i] = 1.0
        K[i, i + 1 :] = row
        K[i + 1 :, i] = row
    return K


def _parent_linear_gram(X):
    G = X @ X.T
    return np.triu(G) + np.triu(G, 1).T


class TestGramMatchesReference:
    @pytest.mark.parametrize("n,m", [(40, 3), (320, 10), (101, 50)])
    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 1.0, 100.0])
    def test_gaussian_bit_identical(self, n, m, sigma):
        X = np.random.default_rng(n * m).uniform(-1.0, 1.0, (n, m))
        spec = KernelSpec.gaussian(sigma)
        assert gram_matrix(spec, X).tobytes() == _feature_order_gram(spec, X).tobytes()

    @pytest.mark.parametrize("n,m", [(40, 3), (320, 10), (101, 50)])
    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 1.0, 100.0])
    def test_gaussian_within_the_summation_bound_of_0_1_0(self, n, m, sigma):
        # both sums lie within m*u*D of the exact squared distance; the
        # scaling adds u*D/sigma**2 to each side and exp at most a unit in
        # the last place
        X = np.random.default_rng(n * m).uniform(-1.0, 1.0, (n, m))
        spec = KernelSpec.gaussian(sigma)
        old = _parent_gram_rows(spec, X)
        d = X[:, None, :] - X[None, :, :]
        x = np.einsum("ijk,ijk->ij", d, d) / (sigma * sigma)
        u = 2.0 ** -53
        bound = 2 * (m + 1) * u * x * old + 2 * np.spacing(old)
        assert (np.abs(gram_matrix(spec, X) - old) <= bound).all()

    @pytest.mark.parametrize("n,m", [(40, 3), (320, 10), (101, 50)])
    def test_linear_bit_identical(self, n, m):
        X = np.random.default_rng(n + m).standard_normal((n, m))
        assert gram_matrix(KernelSpec.linear(), X).tobytes() == _parent_linear_gram(X).tobytes()
        X = np.asfortranarray(X)
        assert gram_matrix(KernelSpec.linear(), X).tobytes() == _parent_linear_gram(X).tobytes()

    def test_rows_equal_kernel_block(self):
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (30, 4))
        spec = KernelSpec.gaussian(0.3)
        assert (gram_matrix(spec, X) == kernel_block(spec, X, X)).all()

    def test_kernel_block_rows_split_by_the_byte_budget(self, monkeypatch):
        rng = np.random.default_rng(6)
        X, Z = rng.uniform(-1.0, 1.0, (50, 3)), rng.uniform(-1.0, 1.0, (23, 3))
        spec = KernelSpec.gaussian(0.7)
        whole = kernel_block(spec, X, Z)
        monkeypatch.setattr(kernel, "BLOCK_BYTES", 2 * X.nbytes)
        assert kernel_block(spec, X, Z).tobytes() == whole.tobytes()

    def test_gram_bytes_do_not_depend_on_the_byte_budget(self, monkeypatch):
        n = 60
        X = np.random.default_rng(7).uniform(-1.0, 1.0, (n, 5))
        spec = KernelSpec.gaussian(0.5)
        whole = gram_matrix(spec, X).tobytes()
        # first blocks of one row and of seven rows, and a single block
        for budget in (16 * n, 7 * 16 * n, 1 << 30):
            monkeypatch.setattr(kernel, "BLOCK_BYTES", budget)
            assert gram_matrix(spec, X).tobytes() == whole

    def test_kernel_block_transposes_bit_for_bit(self):
        rng = np.random.default_rng(8)
        X, Z = rng.uniform(-1.0, 1.0, (50, 7)), rng.uniform(-1.0, 1.0, (23, 7))
        spec = KernelSpec.gaussian(0.4)
        assert kernel_block(spec, X, Z).tobytes() == np.ascontiguousarray(kernel_block(spec, Z, X).T).tobytes()

    def test_zero_features_give_all_ones(self):
        spec = KernelSpec.gaussian(0.3)
        assert (kernel_block(spec, np.zeros((4, 0)), np.zeros((3, 0))) == np.ones((3, 4))).all()
        assert (gram_matrix(spec, np.zeros((5, 0))) == np.ones((5, 5))).all()


class TestKernelProduct:
    def test_shapes_are_checked(self):
        spec = KernelSpec.gaussian(1.0)
        with pytest.raises(ShapeError, match=r"\(1, 2\).*\(1, 3\)"):
            kernel_product(spec, np.zeros((1, 2)), np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 2\)"):
            kernel_product(spec, np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(3))


_POINTS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def _points(draw):
    """n support points, q query rows (some repeating support points, so
    that distances of 0 occur) and m features, a kernel, and weights as a
    vector or as a matrix of 0 to 3 columns."""
    n, q, m = draw(st.integers(1, 60)), draw(st.integers(0, 60)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1.0, 1.0, (n, m))
    Z = np.where(rng.random((q, 1)) < 0.3, X[rng.integers(0, n, q)], rng.uniform(-1.5, 1.5, (q, m)))
    spec = draw(st.sampled_from([KernelSpec.linear(), KernelSpec.gaussian(draw(st.floats(1e-2, 1e2)))]))
    columns = draw(st.sampled_from([None, 0, 1, 3]))
    W = rng.standard_normal(n if columns is None else (n, columns))
    return spec, X, Z, W


@pytest.mark.parametrize("budget", [16, kernel.BLOCK_BYTES], ids=["one-row-blocks", "default-budget"])
@_POINTS
@given(case=_points())
def test_kernel_product_is_the_product_of_its_blocks(budget, case):
    spec, X, Z, W = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "BLOCK_BYTES", budget)
        rows = kernel.block_rows(len(X))
        assert budget > 16 or rows == 1
        want = np.concatenate([np.empty((0, *W.shape[1:])),
                               *(kernel_block(spec, X, Z[i : i + rows]) @ W for i in range(0, len(Z), rows))])
        assert kernel_product(spec, X, Z, W).tobytes() == want.tobytes()


@_POINTS
@given(case=_points(), sigma=st.floats(1e-2, 1e2))
def test_gaussian_gram_is_symmetric_with_unit_diagonal_in_one_row_blocks(case, sigma):
    X = case[1]
    spec = KernelSpec.gaussian(sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "BLOCK_BYTES", 16)
        K = gram_matrix(spec, X)
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()
    assert (np.diag(K) == 1.0).all()
    assert K.tobytes() == _feature_order_gram(spec, X).tobytes()



def _serial(fn, *args):
    """``fn(*args)`` on the inline path, whatever the size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "PARALLEL_ENTRIES", 1 << 62)
        return fn(*args)


@pytest.mark.parametrize("workers", [1, 2, 3])
class TestBitsForEveryWorkerCount:
    """The parallel path, forced at every size, gives the inline path's
    bits, for row counts that are no multiple of a worker's tile."""

    SPECS = [KernelSpec.gaussian(0.4), KernelSpec.linear()]

    @pytest.mark.parametrize("budget", [16 * 50 * 3, kernel.BLOCK_BYTES], ids=["3-row-blocks", "default-budget"])
    @pytest.mark.parametrize("queries", [0, 1, 11, 13, 101, 1001])
    def test_kernel_product_and_block(self, monkeypatch, workers, budget, queries):
        monkeypatch.setattr(kernel, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(queries)
        X, Z = rng.uniform(-1.0, 1.0, (50, 6)), rng.uniform(-1.2, 1.2, (queries, 6))
        weights = [rng.standard_normal(50), rng.standard_normal((50, 1)), rng.standard_normal((50, 5))]
        products = {(spec, i): _serial(kernel_product, spec, X, Z, W) for spec in self.SPECS
                    for i, W in enumerate(weights)}
        blocks = {spec: _serial(kernel_block, spec, X, Z) for spec in self.SPECS}
        with forced_workers(workers):
            for (spec, i), product in products.items():
                assert kernel_product(spec, X, Z, weights[i]).tobytes() == product.tobytes()
            for spec, block in blocks.items():
                assert kernel_block(spec, X, Z).tobytes() == block.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 97, 700])
    def test_gram_matrix(self, workers, n):
        X = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 10))
        grams = [_serial(gram_matrix, spec, X) for spec in self.SPECS]
        with forced_workers(workers):
            for spec, gram in zip(self.SPECS, grams):
                assert gram_matrix(spec, X).tobytes() == gram.tobytes()


class TestMirroredGram:
    """A Gram, mirrored about its diagonal bit for bit, is the full kernel
    block of its points against themselves, for either kind, whatever the
    layout of ``X``: C- or F-ordered or a strided view, inline and on 2
    and 3 workers."""

    SPECS = [KernelSpec.gaussian(0.6), KernelSpec.linear()]

    def _assert_full_block(self, n):
        X = np.random.default_rng(n).uniform(-1.0, 1.0, (2 * n, 20))[::2, ::2]
        C = np.ascontiguousarray(X)
        for spec in self.SPECS:
            block = _serial(kernel_block, spec, C, C).tobytes()
            for points in (C, np.asfortranarray(X), X):
                assert _serial(gram_matrix, spec, points).tobytes() == block
                for workers in (2, 3):
                    with forced_workers(workers):
                        assert gram_matrix(spec, points).tobytes() == block, workers

    @pytest.mark.parametrize("n", [1, 2, 7, 1023, 1025, 3000])
    def test_equals_the_full_block(self, n):
        self._assert_full_block(n)

    @pytest.mark.parametrize("n", [47, 48, 49, 50])
    def test_equals_the_full_block_at_block_row_boundaries(self, monkeypatch, n):
        # 3-row blocks: tiles of 12 rows on either path; n = 48 ends on a
        # whole tile, 47, 49 and 50 on one cut short
        monkeypatch.setattr(kernel, "BLOCK_BYTES", 16 * 50 * 3)
        self._assert_full_block(n)


@pytest.mark.parametrize("n", [40, 320, 2000])
def test_ufunc_buffer_keeps_the_bits_and_the_callers_size(monkeypatch, n):
    # kernel values under UFUNC_BUFFER have the bits of numpy's default
    # buffer, on either path, and the caller's buffer size is restored
    spec = KernelSpec.gaussian(0.6)
    X = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 10))
    Z = np.random.default_rng(n + 1).uniform(-1.0, 1.0, (70, 10))
    W = np.random.default_rng(n + 2).standard_normal((n, 3))

    def values():
        return gram_matrix(spec, X).tobytes() + kernel_product(spec, X, Z, W).tobytes()

    before = np.getbufsize()
    ours = [_serial(values)]
    with forced_workers(2):
        ours.append(values())
    assert np.getbufsize() == before
    monkeypatch.setattr(kernel, "UFUNC_BUFFER", before)
    assert _serial(values) == ours[0] == ours[1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 1100), column=st.booleans(), seed=st.integers(0, 2**32 - 1))
def _row_split_keeps_the_bits(n, column, seed):
    """The premise of row_product on this BLAS: ``K @ b``, for a vector and
    a one-column ``b``, split into two row ranges at any multiple of
    ``ROW_ALIGN`` that leaves at least two rows on each side, has the whole
    product's bits; and so has row_product on 2 and 3 workers. Where this
    fails, the BLAS rounds a matrix-vector product by where its rows
    start, and the fit's bits would depend on the number of CPUs."""
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 1) if column else n)
    whole = (K @ b).tobytes()
    for split in range(kernel.ROW_ALIGN, n - 1, kernel.ROW_ALIGN):
        assert np.concatenate([K[:split] @ b, K[split:] @ b]).tobytes() == whole, split
    for workers in (2, 3):
        with forced_workers(workers):
            assert row_product(K, b).tobytes() == whole, workers


def test_row_split_keeps_the_bits_at_one_blas_thread():
    """Run in a child process at one BLAS thread: with more, OpenBLAS
    splits a matrix-vector product over its own threads at rows that need
    not be multiples of 4, which changes the bits of the whole product
    (ROADMAP item 9), split by row_product or not."""
    subprocess.run([sys.executable, "-c", "import test_kernel; test_kernel._row_split_keeps_the_bits()"],
                   env=one_blas_thread_env(), check=True)


def test_row_product_keeps_wider_products_whole():
    K, b = np.random.default_rng(9).standard_normal((40, 40)), np.ones((40, 3))
    seen = []
    run = kernel._run
    with forced_workers(2), pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_run", lambda fn, ranges: (seen.append(ranges), run(fn, ranges)))
        assert row_product(K, b).tobytes() == (K @ b).tobytes()
    assert seen == [[(0, 40)]]  # a product of 3 columns is one range, never split


def test_split_starts_ranges_at_multiples_and_leaves_no_one_row_range(monkeypatch):
    monkeypatch.setattr(kernel, "_workers", [None] * 3)
    assert kernel._split(100, 8, 1 << 19) == [(0, 100)]  # below PARALLEL_ENTRIES: one range, inline
    assert kernel._split(100, 8, 1 << 20) == [(0, 32), (32, 64), (64, 100)]
    assert kernel._split(17, 8, 1 << 20) == [(0, 8), (8, 17)]
    assert kernel._split(9, 8, 1 << 20) == [(0, 9)]
    assert kernel._split(1, 8, 1 << 20) == [(0, 1)]
    assert kernel._split(0, 8, 1 << 20) == []
    monkeypatch.setattr(kernel, "_workers", [None])
    assert kernel._split(100, 8, 1 << 20) == [(0, 100)]  # one CPU: one range, inline


def test_a_lone_range_runs_in_the_calling_thread_and_starts_no_worker(monkeypatch):
    monkeypatch.setattr(kernel, "_workers", None)
    seen = []
    kernel._run(lambda lo, hi: seen.append((lo, hi, threading.current_thread())), [(3, 11)])
    assert seen == [(3, 11, threading.current_thread())]
    assert kernel._workers is None


class TestWorkers:
    def test_worker_exception_reraises_and_the_pool_still_works(self):
        finished = []

        def job(lo, hi):
            if lo == 0:
                raise ValueError(f"rows {lo}:{hi}")
            time.sleep(0.05)
            finished.append(lo)

        X = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 3))
        spec = KernelSpec.gaussian(0.5)
        want = _serial(kernel_product, spec, X, X, np.ones(40)).tobytes()
        with forced_workers(2):
            with pytest.raises(ValueError, match="rows 0:8"):
                kernel._run(job, [(0, 8), (8, 16)])
            assert finished == [8]  # the caller waited for every range
            assert kernel_product(spec, X, X, np.ones(40)).tobytes() == want

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs the affinity calls")
    def test_a_worker_that_cannot_pin_runs_unpinned(self, monkeypatch):
        queues = kernel._start([1 << 20, 1 << 20])  # no such CPU
        monkeypatch.setattr(kernel, "_workers", queues)
        try:
            seen = []
            caller = threading.Thread(target=kernel._run, args=(lambda lo, hi: seen.append((lo, hi)),
                                                                 [(0, 8), (8, 16)]), daemon=True)
            caller.start()
            caller.join(timeout=30)  # a worker that died on pinning would leave the caller waiting
            assert not caller.is_alive() and sorted(seen) == [(0, 8), (8, 16)]
        finally:
            for jobs in queues:
                jobs.put(None)

    def test_workers_hold_no_array_after_a_call(self):
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (64, 3))
        with forced_workers(2):
            K = gram_matrix(KernelSpec.gaussian(0.5), X)
            ref = weakref.ref(K)
            row_product(K, np.ones(64))
            kernel_product(KernelSpec.gaussian(0.5), X, X, np.ones(64))
            gc.disable()  # freed by reference counts alone, not by a collection
            try:
                del K
                assert ref() is None
            finally:
                gc.enable()

    def test_train_and_predict_on_200_rows_start_no_thread(self, monkeypatch, tmp_path, capsys):
        from satsvm import two_cluster_dataset, write_csv
        from satsvm.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(kernel, "_workers", None)
        write_csv(two_cluster_dataset(n=200, m=10, seed=1), "train.csv")
        write_csv(two_cluster_dataset(n=200, m=10, seed=2), "query.csv")
        assert main(["train", "--input", "train.csv", "--output", "model.json", "--max-iters", "50"]) == 0
        assert main(["predict", "--model", "model.json", "--input", "query.csv", "--output", "pred.csv"]) == 0
        assert kernel._workers is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self):
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (90, 4))
        spec = KernelSpec.gaussian(0.5)
        want = _serial(kernel_product, spec, X, X, np.ones(90)).tobytes()
        with forced_workers(2), warnings.catch_warnings():
            # Python 3.12 warns on a fork with threads running, which is the case tested
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
            if pid == 0:  # the child: the parent's workers are gone, and it starts its own
                ok = kernel._workers is None and kernel_product(spec, X, X, np.ones(90)).tobytes() == want
                os._exit(0 if ok and kernel._workers is not None else 1)
            deadline = time.monotonic() + 60
            while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
                time.sleep(0.01)
            if status == (0, 0):
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            assert status[0] == pid and status[1] == 0

    def test_three_workers_on_short_switch_intervals(self):
        # three workers, pinned round-robin, handing the interpreter lock
        # over as often as they can: every row lands once, unchanged
        rng = np.random.default_rng(4)
        X, Z, W = rng.uniform(-1.0, 1.0, (300, 5)), rng.uniform(-1.0, 1.0, (2000, 5)), rng.standard_normal((300, 2))
        spec = KernelSpec.gaussian(0.6)
        want = _serial(kernel_product, spec, X, Z, W).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with forced_workers(3):
                for _ in range(5):
                    assert kernel_product(spec, X, Z, W).tobytes() == want
        finally:
            sys.setswitchinterval(interval)

def test_cli_import_starts_no_thread_and_no_executor():
    code = ("import sys, threading, satsvm.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=one_blas_thread_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["1", "False", "False"]
