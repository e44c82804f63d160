"""Benchmark runner for the satsvm CLI.

Run from a checkout of the repository:

    python3 bench/run.py --workload grid-cv --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the workload's command sequence as ``python3 -m
satsvm`` child processes, one at a time (a closed loop with a single
client), repeats the sequence until ``--seconds`` have passed, checks
every output, and reports the end-to-end metrics. ``--trace 1`` runs the
same sequence in-process through ``satsvm.cli.main``, alternating an
untraced and a traced pass, and reports the per-layer metrics. Either
way the last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
give the environment, the metrics in words and any failed checks.
"""

import os
import sys

# BLAS/OpenMP threads of this process and of every child; set before numpy
# loads. One thread is at most nproc on any machine and keeps timings
# steady when other jobs share the cores.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_median_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "data.self_s": "s",
    "data.load_s": "s",
    "data.load_mb_per_s": "MB/s",
    "data.write_s": "s",
    "data.corrupt_s": "s",
    "data.prep_s": "s",
    "kernel.self_s": "s",
    "kernel.gram_s": "s",
    "kernel.gram_calls": "count",
    "kernel.gram_entries": "count",
    "kernel.gram_distinct_ratio": "ratio",
    "kernel.vector_s": "s",
    "kernel.vector_calls": "count",
    "loss.self_s": "s",
    "loss.derivative_s": "s",
    "loss.derivative_calls": "count",
    "trainer.self_s": "s",
    "trainer.fit_self_s": "s",
    "trainer.fit_calls": "count",
    "trainer.iters_configured": "count",
    "trainer.us_per_iter": "us",
    "trainer.kmatvec_bytes": "B",
    "trainer.live_iter_ratio": "ratio",
    "trainer.predict_self_s": "s",
    "trainer.predict_rows": "count",
    "trainer.model_io_s.save": "s",
    "trainer.model_io_s.load": "s",
    "trainer.model_bytes.save": "B",
    "trainer.model_bytes.load": "B",
    "harness.self_s": "s",
    "harness.cv_calls": "count",
    "stats.self_s": "s",
    "theory.self_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.cmds": "count",
    "trace.spans": "count",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import satsvm.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


# Starts one command and writes its wall time, exit code and peak RSS as
# JSON to argv[1]. The runner's own memory would otherwise count in the
# command's peak RSS: Linux carries the RSS high-water mark of the process
# that forks into the rusage of what it execs, and this launcher stays small.
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    json.dump([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss], fh)
"""


def run_child(argv: list[str], env: dict, workdir: Path) -> ChildResult:
    """Run one process to completion; its wall time, exit code and peak RSS."""
    report = workdir / ".child.json"
    report.unlink(missing_ok=True)
    with open(workdir / ".stdout", "w+b") as out, open(workdir / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER, str(report), *argv], cwd=workdir,
                                env=env, stdout=out, stderr=err, start_new_session=True)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # reported below as a command killed by SIGKILL
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        try:
            wall, returncode, rss_kb = json.loads(report.read_text())
        except (OSError, ValueError):
            wall, returncode, rss_kb = time.perf_counter() - start, -signal.SIGKILL, 0
        out.seek(0)
        err.seek(0)
        return ChildResult(wall, returncode, rss_kb / 1024.0,
                           out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def run_cli(cli_args: list[str], env: dict, workdir: Path) -> ChildResult:
    return run_child([sys.executable, "-m", "satsvm", *cli_args], env, workdir)


def problems_of(cmd: wl.Command, returncode: int, stdout: str, stderr: str, fingerprints: dict) -> list[str]:
    """Why a command counts as failed; empty when it succeeded."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {returncode}: {last[0]}"]
    try:
        problems = cmd.check(stdout)
        if not problems:
            fp = cmd.digest()
            if fingerprints.setdefault(cmd.label, fp) != fp:
                problems = ["outputs differ from the first repetition in this run"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


def _clear_outputs(cmd: wl.Command) -> None:
    for path in cmd.outputs:
        path.unlink(missing_ok=True)


def setup(workload: str, seed: int, sizes: wl.Sizes, workdir: Path, env: dict):
    """Generate the inputs and run the warm-up, SETUP_REPEATS times afresh.

    The warm-up is one small ``satsvm train``: it compiles bytecode, loads
    the libraries into the file cache and makes the first BLAS calls, so
    none of that lands in a timed command. Returns the last set-up and the
    median set-up time.
    """
    times = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        prepared = wl.prepare(workload, seed, sizes, workdir)
        res = run_cli(prepared.warmup_argv, env, workdir)
        times.append(time.perf_counter() - start)
        if res.returncode != 0:
            raise BenchError(f"warm-up command failed with exit code {res.returncode}:\n{res.stderr}")
    return prepared, statistics.median(times)


class Tally:
    """Commands attempted and failed, with the reasons printed as they come."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict = {}

    def record(self, cmd: wl.Command, returncode: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        problems = problems_of(cmd, returncode, stdout, stderr, self.fingerprints)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {cmd.label}: {problem}")


def _repeat(seconds: float, once) -> list:
    """Call ``once()`` at least once, and again while another call of the
    length of the last one still ends within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def measure(prepared: wl.Prepared, env: dict, workdir: Path, seconds: float, tally: Tally) -> list:
    """Repeat the command sequence as child processes for ``seconds``;
    one list of results per repetition."""

    def once():
        rep = []
        for cmd in prepared.commands:
            _clear_outputs(cmd)
            rep.append(run_cli(cmd.argv, env, workdir))
        for cmd, res in zip(prepared.commands, rep):
            tally.record(cmd, res.returncode, res.stdout, res.stderr)
        return rep

    return _repeat(seconds, once)


def end_to_end_metrics(reps: list, setup_s: float) -> dict:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": med(sum(r.wall_s for r in rep) for rep in reps),
        "cmd_median_s": med(r.wall_s for rep in reps for r in rep),
        "peak_rss_mb": med(max(r.rss_mb for r in rep) for rep in reps),
    }


def workload_lines(workload: str, prepared: wl.Prepared, reps: list, tally: Tally) -> list[str]:
    """Metrics that only one workload defines, and per-command medians.

    They are printed above the JSON line; the JSON carries only metrics
    that every workload defines."""
    med = statistics.median
    n = len(reps)
    lines = [f"failed_ratio {tally.failed / tally.attempted!r} ratio ({tally.failed} of {tally.attempted} commands)"]
    if workload == "grid-cv":
        fits = prepared.info["fits"]
        lines.append(f"grid_fits_per_s {fits / med(rep[0].wall_s for rep in reps)!r} 1/s "
                     f"({fits} fits per grid command, median of {n})")
    elif workload == "train-predict":
        rows = prepared.info["query_rows"]
        lines.append(f"train_s {med(rep[0].wall_s for rep in reps)!r} s (median of {n})")
        lines.append(f"predict_rows_per_s {rows / med(rep[1].wall_s for rep in reps)!r} 1/s "
                     f"({rows} query rows, median of {n})")
    for i, cmd in enumerate(prepared.commands):
        lines.append(f"cmd {cmd.label} {med(rep[i].wall_s for rep in reps)!r} s (median of {n})")
    return lines


# ------------------------------------------------------------ traced run


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import satsvm.cli

    origin = Path(satsvm.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"satsvm was imported from {origin}, not from {SRC}")
    return sys.modules["satsvm.cli"]


def _in_process(cli, argv: list[str]):
    """Run ``cli.main`` once; its wall time, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback in the CLI is a failed command
            rc = 1
            err.write(f"{exc!r}\n")
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def _pass(cli, prepared: wl.Prepared, tally: Tally, tracer=None) -> float:
    """One in-process pass of the sequence; returns the time inside main()."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for cmd in prepared.commands:
            _clear_outputs(cmd)
            results.append(_in_process(cli, cmd.argv))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for cmd, (_, rc, stdout, stderr) in zip(prepared.commands, results):
        tally.record(cmd, rc, stdout, stderr)
    return sum(r[0] for r in results)


def traced_run(prepared: wl.Prepared, env: dict, workdir: Path, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced in-process passes until ``seconds``
    have passed; per-layer metrics are medians over the traced passes."""
    import tracer as tr

    imports = []
    for _ in range(IMPORT_REPEATS):
        res = run_child([sys.executable, "-c", _IMPORT_PROBE], env, workdir)
        if res.returncode != 0:
            raise BenchError(f"importing satsvm.cli failed:\n{res.stderr}")
        imports.append(float(res.stdout))
    cli = _import_program()
    _in_process(cli, prepared.warmup_argv)

    plain, traced, per_pass = [], [], []

    def once():
        plain.append(_pass(cli, prepared, tally))
        tracer = tr.Tracer()
        traced.append(_pass(cli, prepared, tally, tracer))
        layer = tr.layer_metrics(tracer.spans)
        layer["trace.unaccounted_s"] = traced[-1] - layer.pop("trace.accounted_s")
        per_pass.append(layer)

    _repeat(seconds, once)

    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.cmds"] = len(prepared.commands)
    return metrics


# ------------------------------------------------------------ reporting


def _cache_sizes() -> dict:
    """Data/unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(prepared: wl.Prepared) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": _cache_sizes(),
        "k_bytes": prepared.info.get("k_bytes", {}),
    }


def run(workload: str, seed: int, seconds: float, trace: int, sizes: wl.Sizes = wl.FULL) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    if not (SRC / "satsvm" / "__init__.py").is_file():
        raise BenchError(f"no satsvm sources under {SRC}")
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    env = child_env(workdir)
    try:
        prepared, setup_s = setup(workload, seed, sizes, workdir, env)
        print("environment " + json.dumps(environment(prepared), sort_keys=True))
        tally = Tally()
        if trace:
            metrics = traced_run(prepared, env, workdir, seconds, tally)
            units = PER_LAYER
        else:
            reps = measure(prepared, env, workdir, seconds, tally)
            metrics = end_to_end_metrics(reps, setup_s)
            units = END_TO_END
            for line in workload_lines(workload, prepared, reps, tally):
                print(line)
            print(f"repetitions {len(reps)} in {seconds!r} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if set(metrics) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
