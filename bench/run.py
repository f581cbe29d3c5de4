"""singwald benchmark: run one workload for one seed and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs as ``wald`` commands in
child processes, one at a time, with ``--threads`` set to the number of
usable cores.  Every output is checked; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mb, success_rate).  ``--trace 1`` alternates untraced runs with
runs under ``traced_cli.py`` and reports the per-layer metrics of
``tracer.py``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_RUNS = 5
MIN_REPS = 3
MAX_REPS = 50
OP_TIMEOUT_S = 60.0
LAUNCH = "import sys; from singwald.cli import main; sys.argv[0] = 'wald'; main()"
# One BLAS thread per process: ``--threads`` already fills the cores, and
# BLAS threads on top of it would spin against the program's own threads.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("WALD_SEED", None)
    env.update(ONE_BLAS_THREAD)
    return env


class Child:
    """Outcome of one child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], out_path: Path, env: dict):
        self.out_path = out_path
        err_path = out_path.with_suffix(".err")
        state = {"exited": False, "killed": False}
        lock = threading.Lock()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

            def kill():
                with lock:
                    if not state["exited"]:
                        state["killed"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(OP_TIMEOUT_S, kill)
            timer.start()
            try:
                # Wait without reaping, so a late timeout cannot signal a
                # recycled pid, then reap and collect the resource usage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    state["exited"] = True
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall = time.perf_counter() - start
            finally:
                timer.cancel()
                if not state["exited"]:
                    proc.kill()
                    proc.wait()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.killed = state["killed"] and os.WIFSIGNALED(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr_tail = err_path.read_bytes()[-400:].decode("utf-8", "replace")

    def problem(self) -> str | None:
        if self.killed:
            return f"timed out after {OP_TIMEOUT_S:g} s"
        if self.rc != 0:
            return f"exit code {self.rc}: {self.stderr_tail.strip()}"
        return None


class Judge:
    """Checks outputs: the first output of each command in full, every later
    one by digest, which must equal the first."""

    def __init__(self):
        self.first: dict[int, tuple[str, list[str]]] = {}

    def __call__(self, index: int, command, out: bytes) -> list[str]:
        digest = hashlib.sha256(out).hexdigest()
        if index not in self.first:
            self.first[index] = (digest, command.check(out))
        first_digest, problems = self.first[index]
        if digest != first_digest:
            return ["output differs from the first run of the same command"]
        return problems


class Run:
    """Bookkeeping of one benchmark run: operations attempted and failed."""

    def __init__(self, workdir: Path, threads: int, seed: int):
        self.workdir = workdir
        self.threads = threads
        self.seed = seed
        self.env = child_env()
        self.judge = Judge()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def path(self, suffix: str) -> Path:
        """A fresh file name in the run's working directory."""
        self._count += 1
        return self.workdir / f"{self._count}{suffix}"

    def child(self, argv: list[str]) -> Child:
        return Child(argv, self.path(".out"), self.env)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"# problem: {message}", file=sys.stderr)

    def operation(self, index: int, command, threads: int, traced: bool = False):
        """One wald invocation: run it, check it, count it."""
        args = list(command.args) + ["--threads", str(threads), "--seed", str(self.seed)]
        if traced:
            spans = self.path(".spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + args
        else:
            argv = [sys.executable, "-c", LAUNCH] + args
        child = self.child(argv)
        self.attempted += 1
        problem = child.problem()
        out = child.out_path.read_bytes()
        child.bytes_out = len(out)
        problems = [problem] if problem else self.judge(index, command, out)
        child.out_path.unlink()
        if problems:
            self.failed += 1
            self.fail(f"{command.args[0]}: {'; '.join(problems)}")
        child.ok = not problems
        if traced:
            child.spans = json.loads(spans.read_text()) if child.ok else []
            child.dump_s = float(Path(f"{spans}.dump_s").read_text()) if child.ok else 0.0
        return child

    def probe(self, args: list[str]) -> Child:
        child = self.child([sys.executable, str(HERE / "probe.py")] + args)
        if child.problem():
            self.fail(f"probe {args[0]}: {child.problem()}")
        return child


def median(xs):
    return statistics.median(xs) if xs else 0.0


def environment(threads: int) -> dict:
    import numpy
    import scipy

    env = {"nproc": threads, "cpus_online": os.cpu_count(), "threads_arg": threads,
           "machine": platform.machine(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        env["cpu_model"] = platform.processor()
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            env[f"L{level}"] = size
    return env


def repeat(run: Run, seconds: float, min_reps: int, body) -> list:
    """Call ``body`` at least ``min_reps`` times, then while another call
    of average length still ends within ``seconds``."""
    reps = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS and not run.problems:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        reps.append(body())
    return reps


def run_untraced(run: Run, inst, seconds: float) -> dict:
    setups = [run.probe(["setup", *inst.setup]) for _ in range(SETUP_RUNS)]
    for i, cmd in enumerate(inst.commands):
        if cmd.threaded:
            run.operation(i, cmd, threads=1)
    reps = repeat(run, seconds, MIN_REPS, lambda: [
        run.operation(i, cmd, run.threads) for i, cmd in enumerate(inst.commands)
    ])
    walls = [sum(c.wall for c in rep) for rep in reps]
    cpus = [sum(c.cpu for c in rep) for rep in reps]
    rss = [max(c.rss_mb for c in rep) for rep in reps]
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median([c.wall for c in setups]), "s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "success_rate": (1.0 - run.failed / max(run.attempted, 1), "ratio"),
    }
    print(f"# timed repetitions: {len(reps)}; set-up runs: {len(setups)}")
    for name, xs in (("wall_s", walls), ("cpu_s", cpus), ("peak_rss_mb", rss),
                     ("setup_s", [c.wall for c in setups])):
        print(f"# {name}: median {median(xs):.6g} of n={len(xs)}, min {min(xs, default=0):.6g}, "
              f"max {max(xs, default=0):.6g}")
    print(f"# error_rate: {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.6g}")
    return metrics


def run_traced(run: Run, inst, seconds: float) -> dict:
    import tracer

    pairs = repeat(run, seconds, 1, lambda: (
        [run.operation(i, c, run.threads) for i, c in enumerate(inst.commands)],
        [run.operation(i, c, run.threads, traced=True) for i, c in enumerate(inst.commands)],
    ))
    plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    per_rep = []
    for rep in traced:
        totals: dict[str, float] = {}
        for child in rep:
            for name, value in tracer.layer_metrics(child.spans, run.threads).items():
                # Sum over the commands of a repetition; a ratio is taken
                # from the command that does the work.
                combine = max if name == "tetrad.cov_useful_ratio" else operator.add
                totals[name] = combine(totals.get(name, 0.0), value)
        run_wall = sum(c.wall - c.dump_s for c in rep)
        totals["trace.coverage"] = (
            sum(tracer.covered_time(c.spans) for c in rep) / run_wall if run_wall > 0 else 0.0
        )
        totals["cli.bytes_out"] = sum(c.bytes_out for c in rep)
        per_rep.append(totals)
    values = {name: median([r.get(name, 0.0) for r in per_rep]) for name in tracer.metric_names()}
    values["trace.overhead_s"] = (
        median([sum(c.wall - c.dump_s for c in rep) for rep in traced])
        - median([sum(c.wall for c in rep) for rep in plain])
    )
    values["sampler.thread_speedup"] = 0.0
    if inst.speedup:
        probe = run.probe(["speedup", *inst.speedup, str(run.threads), str(run.seed)])
        if probe.problem() is None:
            times = json.loads(probe.out_path.read_text())
            values["sampler.thread_speedup"] = times["t1"] / times["tn"]
    print(f"# traced repetitions: {len(traced)}, untraced: {len(plain)}")
    return {name: (values[name], tracer.metric_unit(name)) for name in tracer.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singwald" / "cli.py").is_file():
        print(f"error: {SRC / 'singwald'} not found; run from the root of a singwald checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        why, make = workloads.WORKLOADS[args.workload]
        inst = make(args.seed, workdir)
        run = Run(workdir, threads, args.seed)
        measure = run_traced if args.trace else run_untraced
        metrics = measure(run, inst, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload}: {why}")
    print("# environment " + json.dumps(environment(threads), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
