"""The command line, as ``python -m satsvm`` and the ``satsvm`` script.

Both run BLAS at one thread: the variables below are set before ``.cli``
loads numpy, over any value the caller set, since a command's speed and
some of its bits depend on the thread count. ``import satsvm.cli`` and
an in-process ``cli.main`` leave the caller's setting alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
