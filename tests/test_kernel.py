import math
import tracemalloc

import numpy as np
import pytest

from satsvm import (
    CapacityError,
    KernelSpec,
    ShapeError,
    gram_matrix,
    kernel_block,
)


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
        import satsvm.kernel as kernel

        rng = np.random.default_rng(6)
        X, Z = rng.uniform(-1.0, 1.0, (50, 3)), rng.uniform(-1.0, 1.0, (23, 3))
        spec = KernelSpec.gaussian(0.7)
        whole = kernel_block(spec, X, Z)
        monkeypatch.setattr(kernel, "BLOCK_BYTES", 2 * X.nbytes)
        assert kernel_block(spec, X, Z).tobytes() == whole.tobytes()

    def test_gram_bytes_do_not_depend_on_the_byte_budget(self, monkeypatch):
        import satsvm.kernel as kernel

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
