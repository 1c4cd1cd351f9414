"""Benchmark of the ``loiqif`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run generates the workload's inputs from ``--seed``, then starts the
real CLI as a fresh child process again and again, one after another
(a closed loop with one client), for ``--seconds``.  Every invocation's
stdout is checked against the workload's oracle and against the first
correct stdout of the run.  The last line of stdout is one JSON object:
``correct``, ``attempted`` (invocations), ``failed`` (exit status not 0,
oracle rejected, or stdout different for the same input; ``failed /
attempted`` is the fail ratio) and ``metrics``.

The host this runs on changes speed by tens of percent over tens of
seconds, so raw wall times of runs made minutes apart are not comparable.
Each invocation is therefore timed next to a fixed pure-Python reference
loop that involves no ``loiqif`` code, and its wall time is expressed in
units of that loop ("ref"): wall time over the mean of the loop's time just
before and just after it.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref.p50``  median over the run of one invocation's wall time, in ref;
* ``atoms_per_ref`` atoms one invocation enumerates per ref of wall time;
* ``peak_rss_mb``   largest ``ru_maxrss`` of any invocation;
* ``setup_s``       median wall time, in seconds, of a child that imports
                    ``loiqif.cli`` and builds its parser (one after each
                    invocation).

``--trace 1`` adds one traced in-process run of the same command (see
``tracing.py``) and reports the per-layer metrics, with the raw seconds
``wall_s.p50`` and ``ref_s.p50`` of the run's invocations and loops.
``trace.overhead`` is the traced ``main(argv)`` in ref over ``wall_ref.p50``,
minus 1; it leaves out interpreter start-up, so it can be below 0.

``--smoke`` runs every workload at a few bits in seconds, corrupts one
output of each, and checks that the oracle counts it as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"            # scratch inputs and trace files
RUN_LIMIT_S = 170                    # every run ends well inside 180 s
MIN_INVOCATIONS = 3
SETUP_CODE = "import loiqif.cli as c; c.build_parser()"


def reference_s() -> float:
    """Wall time of a fixed loop of dict updates, tuple indexing and integer
    arithmetic (about 50 ms): the host's speed at this moment."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(150_000):
        k = (i * 2654435761) & 0xFFF
        table[k] = table.get(k, 0) + (i, k)[1]
        acc += k * i % 7
    return time.perf_counter() - start


@dataclass
class Invocation:
    wall_s: float
    maxrss_mb: float
    status: int
    stdout: str
    stderr: str


# Started once per run while the benchmark is still small: a child's
# ru_maxrss counts the memory of the process that spawned it (Linux carries
# the old image's peak across exec), so the CLI is spawned from this
# launcher and not from the benchmark, which grows with inputs and oracles.
LAUNCHER = r"""
import json, os, select, subprocess, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    if not select.select([pidfd], [], [], job["timeout"])[0]:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Runner:
    """Starts ``python`` children against this checkout's ``src``, one at a
    time, through the launcher; a child still running at the deadline is
    killed."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER], text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def spawn(self, args: list[str], cwd: Path) -> Invocation:
        out, err = cwd / ".stdout", cwd / ".stderr"
        job = {"argv": [sys.executable, *args], "cwd": str(cwd), "env": self.env,
               "out": str(out), "err": str(err),
               "timeout": max(0.0, self.deadline - time.perf_counter())}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("the launcher process ended early")
        wall, maxrss_kb, status = json.loads(reply)
        return Invocation(wall, maxrss_kb / 1024, status, out.read_text(), err.read_text())

    def check_package(self, cwd: Path) -> None:
        """Fill the bytecode cache, and make sure the children import the
        package from this checkout."""
        probe = self.spawn(["-c", "import loiqif.cli as c; print(c.__file__)"], cwd)
        if probe.status != 0 or Path(probe.stdout.strip()) != SRC / "loiqif" / "cli.py":
            raise SystemExit(f"loiqif.cli does not import from {SRC}: "
                             f"{probe.stdout.strip() or probe.stderr.strip()[-300:]}")


@dataclass
class Measurement:
    invocations: list[Invocation] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)     # one more than invocations
    setups: list[float] = field(default_factory=list)
    failed: int = 0
    reference: str | None = None   # first stdout the oracle accepted

    def wall_ref(self) -> float:
        return statistics.median(i.wall_s / ((a + b) / 2) for i, a, b
                                 in zip(self.invocations, self.refs, self.refs[1:]))


def measure(runner: Runner, work: Path, w: workloads.Workload, seconds: float,
            corrupt_at: int | None = None) -> Measurement:
    """Invoke the workload's command until ``seconds`` have passed (at least
    ``MIN_INVOCATIONS`` times) and check every output.  ``corrupt_at``
    damages that invocation's stdout before the check, to prove the check."""
    m = Measurement(refs=[reference_s()])
    verdicts: dict[str, list[str]] = {}
    start = time.perf_counter()
    while len(m.invocations) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        longest = max((i.wall_s for i in m.invocations), default=0.0)
        if time.perf_counter() + 2 * longest > runner.deadline:
            break
        inv = runner.spawn(["-m", "loiqif.cli", *w.argv], work)
        m.refs.append(reference_s())
        m.setups.append(runner.spawn(["-c", SETUP_CODE], work).wall_s)
        m.invocations.append(inv)
        stdout = _corrupt(inv.stdout) if corrupt_at == len(m.invocations) - 1 else inv.stdout
        if inv.status != 0:
            problems = [f"exit status {inv.status}: {inv.stderr.strip()[-300:]}"]
        else:
            if stdout not in verdicts:
                verdicts[stdout] = w.check(stdout)
            problems = verdicts[stdout]
            if not problems and m.reference is not None and stdout != m.reference:
                problems = ["stdout differs from the run's first correct stdout"]
        if problems:
            m.failed += 1
            print(f"{w.name}: invocation {len(m.invocations)} failed: {problems[0]}",
                  file=sys.stderr)
        elif m.reference is None:
            m.reference = stdout
    return m


def _corrupt(stdout: str) -> str:
    """The output with its first digit changed."""
    i = next(i for i, c in enumerate(stdout) if c.isdigit())
    return stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]


def end_to_end(w: workloads.Workload, m: Measurement) -> dict:
    wall = m.wall_ref()
    return {"wall_ref.p50": (wall, "ref"),
            "atoms_per_ref": (w.atoms / wall, "1/ref"),
            "peak_rss_mb": (max(i.maxrss_mb for i in m.invocations), "MB"),
            "setup_s": (statistics.median(m.setups), "s")}


def traced_run(w: workloads.Workload, work: Path, m: Measurement,
               trace_file: Path) -> tuple[dict, list[str]]:
    """One traced in-process run of the command; returns the per-layer
    metrics and the problems found comparing it with the CLI's own run."""
    sys.path.insert(0, str(SRC))
    import loiqif
    if Path(loiqif.__file__).parent != SRC / "loiqif":
        raise SystemExit(f"loiqif imports from {loiqif.__file__}, not from {SRC}")
    before = reference_s()
    status, stdout, tracer = tracing.run_main(w.argv, work)
    after = reference_s()
    problems = []
    if status != 0:
        problems.append(f"traced run exited with {status}")
    elif m.reference is None or stdout != m.reference:
        problems.append("traced stdout differs from the CLI's checked stdout")
    # A counter is compared where the program still reaches its layer
    # through the public function the tracer wraps.
    problems += [f"traced {name} = {tracer.counts[name]}, want {want}"
                 for name, want in w.counts.items()
                 if tracer.ran(tracing.COUNT_METRICS[name]) and tracer.counts[name] != want]

    metrics = tracing.layer_metrics(tracer, stdout)
    metrics["wall_s.p50"] = statistics.median(i.wall_s for i in m.invocations)
    metrics["ref_s.p50"] = statistics.median(m.refs)
    # Both sides in ref units, so the host's speed at the two moments cancels.
    metrics["trace.overhead"] = (metrics["cli.main.s"] / ((before + after) / 2)
                                 / m.wall_ref() - 1)
    inclusive, own = tracer.times()
    for name in sorted(own, key=own.get, reverse=True):
        print(f"  span {name:<26} total {inclusive[name] / 1e9:9.4f} s"
              f"  self {own[name] / 1e9:9.4f} s")
    print("  modules by self time: " + ", ".join(
        f"{mod} {s:.3f} s" for mod, s in tracing.module_ranking(tracer)))
    t0 = tracer.spans[0][1] if tracer.spans else 0
    trace_file.write_text(json.dumps({
        "argv": w.argv,
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p, _ in tracer.spans],
        "self_s": {n: v / 1e9 for n, v in own.items()},
        "total_s": {n: v / 1e9 for n, v in inclusive.items()},
        "counts": dict(tracer.counts),
    }, separators=(",", ":")))
    return metrics, problems


def _unit(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s.p50"):
        return "s"
    return {"cli.output_bytes": "bytes", "trace.overhead": "ratio"}.get(metric, "count")


def _in_workdir(w: workloads.Workload, prefix: str, body):
    """``body(work)`` with the workload's files written to a fresh directory
    under ``OUT``, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        for fname, text in w.files.items():
            (work / fname).write_text(text)
        return body(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    with Runner(time.perf_counter() + RUN_LIMIT_S) as runner:
        w = workloads.WORKLOADS[name](seed)

        def body(work: Path):
            runner.check_package(work)
            m = measure(runner, work, w, seconds)
            if not trace:
                return m, end_to_end(w, m), []
            metrics, problems = traced_run(w, work, m, OUT / f"trace-{name}-seed{seed}.json")
            return m, {k: (v, _unit(k)) for k, v in metrics.items()}, problems

        m, metrics, problems = _in_workdir(w, f"{name}-", body)
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
    walls = [i.wall_s for i in m.invocations]
    print(f"{name} seed {seed}: {len(walls)} invocations, wall median "
          f"{statistics.median(walls):.4f} s (min {min(walls):.4f}, max {max(walls):.4f}), "
          f"reference loop median {statistics.median(m.refs):.4f} s, "
          f"fail_ratio {m.failed / len(walls):.3f}")
    failed = m.failed + bool(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(walls) + trace,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload at a few bits: the outputs pass their oracles, one
    corrupted output per workload is caught, and the traced run agrees."""
    ok = True
    with Runner(time.perf_counter() + RUN_LIMIT_S) as runner:
        results = {}
        for name, make in workloads.WORKLOADS.items():
            w = make(1, smoke=True)

            def body(work: Path):
                runner.check_package(work)
                m = measure(runner, work, w, 0, corrupt_at=1)
                return m, traced_run(w, work, m, OUT / f"smoke-trace-{name}.json")[1]

            results[name] = _in_workdir(w, f"smoke-{name}-", body)
    for name, (m, problems) in results.items():
        attempted = len(m.invocations)
        caught = m.failed == 1 and m.reference is not None
        print(f"smoke {name}: {attempted} invocations, corrupted output "
              f"{'caught' if caught else 'NOT caught'}, fail_ratio "
              f"{m.failed / attempted:.3f}, traced run "
              f"{'agrees' if not problems else 'DISAGREES: ' + '; '.join(problems)}")
        ok = ok and caught and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check every workload and its oracle at a few bits")
    args = ap.parse_args(argv)
    if not (SRC / "loiqif" / "cli.py").is_file():
        print(f"error: no loiqif sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
