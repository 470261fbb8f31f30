"""specsub benchmark: seeded workloads, end-to-end CLI wall clock, per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see workloads.py): algebra_cli, warped_cli, lie_scale, pushdown_lib.

--trace 0 measures end to end, with no tracing.  The three CLI workloads run
``specsub`` the way its console script does, one child process at a time
(closed loop: the next call starts after the previous one ended); each call's
wall time includes interpreter start and import, and its peak memory is the
child's own rusage from ``os.wait4``.  pushdown_lib calls the library in
this process, since the CLI cannot reach the 2D quadratic form.  Passes over
the workload's fixed call list repeat until ``--seconds`` is used up (at least
two, so that every argv runs twice and its stdout bytes can be compared).

--trace 1 replays one pass in this process twice, without and with span
wrappers (spans.py) around specsub's public functions, and reports the
per-layer metrics, the tracing overhead and the interpreter-start and import
probes.  The traced stdout must equal the untraced stdout byte for byte.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list the environment, each metric
with its unit and sample count, failed_frac and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FIXTURE_DIR_ENV = "SPECSUB_FIXTURE_DIR"
# what the `specsub` console script runs
CLI_ENTRY = "import sys; from specsub.cli import main; sys.exit(main())"

SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s", "peak_rss_mb": "MB"}


# -- child processes ----------------------------------------------------------

class Child:
    """Runs one child process at a time and reads its own rusage."""

    def __init__(self, workdir: Path, fixture_dir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env[FIXTURE_DIR_ENV] = str(fixture_dir)

    def run(self, args):
        """-> (exit code, stdout, stderr, wall seconds, peak RSS in KiB)"""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read(), seconds, usage.ru_maxrss


def compile_bytecode(child: Child):
    code, _, err, _, _ = child.run(["-m", "compileall", "-q", "-f", str(SRC / "specsub")])
    if code != 0:
        raise RuntimeError(f"compileall failed: {err.decode(errors='replace')}")


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int, tiny: bool, workdir: Path, child: Child):
    """Generate the seeded inputs into a fresh fixture directory and warm the
    bytecode cache; -> (Inputs, seconds)."""
    t0 = time.perf_counter()
    fixtures = workdir / "fixtures"
    shutil.rmtree(fixtures, ignore_errors=True)
    fixtures.mkdir()
    inputs = workloads.GENERATORS[workload](seed, str(fixtures), tiny)
    compile_bytecode(child)
    return inputs, time.perf_counter() - t0


# -- passes -------------------------------------------------------------------

class Checks:
    """Failures per call, and the first output of every repeated argv."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.first: dict = {}

    def record(self, key, output, problem):
        self.attempted += 1
        if key in self.first:
            if self.first[key] != output and problem is None:
                problem = "output differs from the first run of the same call"
        else:
            self.first[key] = output
        if problem is not None:
            self.failures.append(f"{' '.join(map(str, key))}: {problem}")


class SetupSchedule:
    """Repeats the set-up at evenly spaced moments of the measured interval,
    so that its median samples the machine at several times, not at one."""

    def __init__(self, redo, first: float, seconds: float):
        self.redo = redo
        self.times = [first]
        self.due = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
        self.start = time.perf_counter()

    def maybe(self) -> float:
        """Run the set-up if one is due; -> seconds spent."""
        if not self.due or time.perf_counter() - self.start < self.due[0]:
            return 0.0
        self.due.pop(0)
        self.times.append(self.redo())
        return self.times[-1]

    def finish(self):
        while self.due:
            self.due.pop(0)
            self.times.append(self.redo())


def timed_passes(run_pass, seconds: float):
    """Repeat run_pass() until the budget is used, at least MIN_PASSES times.
    run_pass returns the seconds it spent on set-ups, which are not counted."""
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        excluded = run_pass()
        walls.append(time.perf_counter() - t0 - excluded)
        used = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and used + statistics.median(walls) > seconds:
            return walls


def cli_pass(inputs, child: Child, checks: Checks, call_times: list, rss: list,
             setups: SetupSchedule) -> float:
    excluded = 0.0
    for call in inputs.cli_calls:
        code, out, _, seconds, maxrss = child.run(["-c", CLI_ENTRY, *call.argv])
        call_times.append(seconds)
        rss.append(maxrss)
        checks.record(call.argv, (code, out), workloads.check_cli(call, code, out))
        excluded += setups.maybe()
    return excluded


def lib_specs(specsub, inputs) -> dict:
    """WarpedProductSpec per (warp name, grid), built through the public API."""
    wsp = specsub.warped_spectra
    specs = {}
    for case in inputs.lib_cases:
        kind, params = inputs.warps[case.warp]
        if kind == "const":
            spec = specsub.fixtures.warp_const(*params)
        elif kind == "sinshift":
            spec = specsub.fixtures.warp_sinshift(*params)
        elif kind == "exp":
            (a,) = params
            spec = specsub.fixtures.warp_exp(a, b=15.0 / a)
        else:
            spec = wsp.WarpedProductSpec(wsp.CircleBase(2 * np.pi),
                                         wsp.WarpProfile("samples", (), samples=params),
                                         name=case.warp)
        specs[case.warp, case.grid_n] = spec
    return specs


def lib_pass(specsub, cases, specs, tracer=None, call_times=None):
    """Library calls of the given cases; -> [(slack, rayleigh)] per case.  The
    functions are looked up at call time, so installed wrappers are used."""
    wsp = specsub.warped_spectra
    results = []
    for case in cases:
        spec = specs[case.warp, case.grid_n]
        values = []
        for name in ("pushdown_slack", "rayleigh_2d"):
            fn = getattr(wsp, name)
            ctx = tracer.span("call", command=name) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                values.append(fn(spec, case.f2d, case.grid_n))
            if call_times is not None:
                call_times.append(time.perf_counter() - t0)
        results.append(tuple(values))
    return results


def check_lib_pass(inputs, results, checks: Checks):
    """One check per case: a slack call and a Rayleigh call."""
    for i, (case, (slack, rayleigh)) in enumerate(zip(inputs.lib_cases, results)):
        checks.record(("case", i, case.warp, case.grid_n), (slack, rayleigh),
                      workloads.check_lib(case, slack, rayleigh))


def import_program():
    sys.path.insert(0, str(SRC))
    import specsub
    import specsub.cli
    where = Path(specsub.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported specsub from {where}, not from {SRC}")
    return specsub


# -- trace 0 ------------------------------------------------------------------

def end_to_end(args, inputs, setups: SetupSchedule, child: Child):
    checks, call_times, rss = Checks(), [], []
    if inputs.cli_calls:
        child.run(["-c", "import specsub.cli"])           # warm the page cache
        walls = timed_passes(
            lambda: cli_pass(inputs, child, checks, call_times, rss, setups), args.seconds)
        peak_kib = max(rss)
    else:
        specsub = import_program()
        specs = lib_specs(specsub, inputs)
        check_lib_pass(inputs, lib_pass(specsub, inputs.lib_cases, specs), checks)  # warm-up

        def one_pass():
            results = lib_pass(specsub, inputs.lib_cases, specs, call_times=call_times)
            check_lib_pass(inputs, results, checks)
            return setups.maybe()
        walls = timed_passes(one_pass, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups.finish()
    metrics = {
        "setup_s": (statistics.median(setups.times), len(setups.times)),
        "wall_s": (statistics.median(walls), len(walls)),
        "call_p50_s": (statistics.median(call_times), len(call_times)),
        "peak_rss_mb": (peak_kib / 1024.0, len(rss) or 1),
    }
    return {k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()}, checks


# -- trace 1 ------------------------------------------------------------------

def import_seconds(stderr: bytes):
    """Cumulative import time of specsub and of scipy.sparse.linalg, parsed
    from -X importtime output ('import time: self | cumulative | name', where
    the name is indented two spaces per nesting level)."""
    top, linalg = 0.0, 0.0
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        seconds = int(cumulative) * 1e-6
        if name.strip() == "scipy.sparse.linalg" and linalg == 0.0:
            linalg = seconds
        if (name.strip() == "specsub" or name.strip().startswith("specsub.")) \
                and len(name) - len(name.lstrip()) == 1:
            top += seconds
    return top, linalg


def spawn_floor(child: Child) -> float:
    """Median wall time of `python -c pass`: interpreter start with no import."""
    return statistics.median(child.run(["-c", "pass"])[3] for _ in range(PROBE_REPEATS))


def probes(child: Child, spawn: float) -> dict:
    runs = [import_seconds(child.run(["-X", "importtime", "-c", "import specsub.cli"])[2])
            for _ in range(PROBE_REPEATS)]
    return {
        "proc.spawn_s": (spawn, "s", PROBE_REPEATS),
        "cli.import_s": (statistics.median(r[0] for r in runs), "s", PROBE_REPEATS),
        "cli.import.scipy_sparse_linalg_s": (statistics.median(r[1] for r in runs), "s",
                                             PROBE_REPEATS),
    }


@contextlib.contextmanager
def cli_environment(fixture_dir: Path):
    """The fixture directory and working directory a CLI child would see."""
    old_cwd, old_env = os.getcwd(), os.environ.get(FIXTURE_DIR_ENV)
    os.environ[FIXTURE_DIR_ENV] = str(fixture_dir)
    os.chdir(fixture_dir.parent)
    try:
        yield
    finally:
        os.chdir(old_cwd)
        if old_env is None:
            os.environ.pop(FIXTURE_DIR_ENV, None)
        else:
            os.environ[FIXTURE_DIR_ENV] = old_env


def replay_cli(specsub, call, tracer=None):
    """One call in process through specsub.cli.main; -> (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    ctx = tracer.span("call", command=call.command) if tracer else contextlib.nullcontext()
    with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = specsub.cli.main(list(call.argv))
    return code, out.getvalue().encode("utf-8")


class Replay:
    """Runs each call untraced and then traced, back to back, so that a slow
    spell of the machine hits both and the overhead ratio stays meaningful."""

    def __init__(self):
        self.tracer = spans.Tracer()
        self.plain_wall = self.traced_wall = 0.0

    def both(self, run_one):
        t0 = time.perf_counter()
        plain = run_one(None)
        self.plain_wall += time.perf_counter() - t0
        self.tracer.install()
        try:
            t0 = time.perf_counter()
            traced = run_one(self.tracer)
            self.traced_wall += time.perf_counter() - t0
        finally:
            self.tracer.uninstall()
        return plain, traced


def per_layer(inputs, workdir: Path, child: Child, spawn: float):
    checks = Checks()
    metrics = probes(child, spawn)
    specsub = import_program()
    replay = Replay()
    if inputs.cli_calls:
        reference = [child.run(["-c", CLI_ENTRY, *call.argv])[:2]
                     for call in inputs.cli_calls]
        with cli_environment(workdir / "fixtures"):
            replay_cli(specsub, inputs.cli_calls[0])                       # warm-up
            for call, ref in zip(inputs.cli_calls, reference):
                plain, traced = replay.both(lambda tracer: replay_cli(specsub, call, tracer))
                problem = workloads.check_cli(call, *ref)
                if problem is None and not ref == plain == traced:
                    problem = "in-process replay stdout or exit code differs from the CLI run"
                checks.record(call.argv, ref, problem)
    else:
        specs = lib_specs(specsub, inputs)
        lib_pass(specsub, inputs.lib_cases, specs)                          # warm-up
        for i, case in enumerate(inputs.lib_cases):
            plain, traced = replay.both(
                lambda tracer: lib_pass(specsub, [case], specs, tracer)[0])
            problem = workloads.check_lib(case, *plain)
            if problem is None and traced != plain:
                problem = "traced result differs from the untraced one"
            checks.record(("case", i, case.warp, case.grid_n), plain, problem)
    layers = spans.layer_metrics(replay.tracer.spans, workloads.LIE_MAX_DIM)
    layers["trace.overhead_frac"] = (
        (replay.traced_wall - replay.plain_wall) / replay.plain_wall, "ratio")
    metrics.update({k: (v, unit, 1) for k, (v, unit) in layers.items()})
    return metrics, checks, replay.tracer.missing


# -- environment and report ---------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def environment(spawn: float) -> dict:
    return {
        "spawn_floor_s": spawn,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def report(args, env, metrics, checks, missing):
    print(f"# specsub benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}{', tiny' if args.tiny else ''}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit:6s} n={n}")
    failed = len(checks.failures)
    print(f"{'failed_frac':48s} {failed / max(checks.attempted, 1):>16.6g} ratio  "
          f"n={checks.attempted}")
    if missing:
        print("# not defined by the program (reported as 0 calls): "
              + ", ".join(sorted(missing)))
    for line in checks.failures[:20]:
        print("# FAILED " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test of the benchmark itself")
    args = p.parse_args(argv)
    if not (SRC / "specsub" / "cli.py").is_file():
        print(f"error: no specsub sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        child = Child(workdir, workdir / "fixtures")
        spawn = spawn_floor(child)
        env = environment(spawn)
        inputs, seconds = setup(args.workload, args.seed, args.tiny, workdir, child)
        if args.trace:
            metrics, checks, missing = per_layer(inputs, workdir, child, spawn)
        else:
            def redo():
                return setup(args.workload, args.seed, args.tiny, workdir, child)[1]
            setups = SetupSchedule(redo, seconds, args.seconds)
            metrics, checks = end_to_end(args, inputs, setups, child)
            missing = []
        report(args, env, metrics, checks, missing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
