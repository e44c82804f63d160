import contextlib
import os

import pytest

import satsvm.kernel as kernel
from satsvm import KernelSpec, LossSpec, TrainerConfig, loss_derivative, make_folds, normalize, two_cluster_dataset

# reference synthetic task: two well-separated clusters, normalized to
# [-1, 1]; the clusters sit > 4 kernel widths apart at sigma = 0.3.
SIGMA = 0.3
C = 30.0
A = 0.5
LAM = 1.0


def separable_dataset(seed=5, n=200):
    return normalize(two_cluster_dataset(n=n, m=2, separation=5.0, spread=0.5, seed=seed))


def expsat_config(seed=5, **kw):
    args = dict(C=C, loss=LossSpec.expsat(A, LAM), kernel=KernelSpec.gaussian(SIGMA), seed=seed)
    args.update(kw)
    return TrainerConfig(**args)


def hinge_config(seed=5, **kw):
    args = dict(C=C, loss=LossSpec.hinge(), kernel=KernelSpec.gaussian(SIGMA), seed=seed)
    args.update(kw)
    return TrainerConfig(**args)


def full_gradient(config, K, y, beta):
    """Exact gradient of ``objective`` at ``beta``, the oracle of the
    trainer's gradient: ``K beta - (C/n) * sum_k L'(xi_k) y_k K_k`` with
    ``xi_k = 1 - y_k (K beta)_k``. Samples on or past the margin
    (xi_k <= 0) contribute nothing for losses that vanish there."""
    kb = K @ beta
    w = loss_derivative(config.loss, 1.0 - y * kb) * y
    return kb - (config.C / len(K)) * (K @ w)


@pytest.fixture
def separable():
    ds = separable_dataset()
    return ds, make_folds(ds.n, 5, seed=5)


def one_blas_thread_env() -> dict:
    """The environment of a child process that imports ``satsvm`` and the
    test modules and runs BLAS at one thread."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


@contextlib.contextmanager
def forced_workers(workers: int):
    """Send every kernel call and row product down the parallel path, on
    ``workers`` fresh workers pinned round-robin to the allowed CPUs (one
    worker runs inline); the workers stop on exit."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    queues = kernel._start([cpus[i % len(cpus)] for i in range(workers)]) if workers > 1 else []
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_workers", queues)
            mp.setattr(kernel, "PARALLEL_ENTRIES", 0)
            yield
    finally:
        for jobs in queues:
            jobs.put(None)
