#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``unidom`` command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search_max --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one table

A single-process, single-thread, closed loop: each task is one ``unidom``
command line, passed as argv to ``unidom.cli.main`` in this process with
stdout captured, and it starts only after the previous one returned.  The
seed generates the task lists (see ``workloads.py``); the program receives
only argv.  Every output is checked after the timed region.

``--trace 0`` runs the workload's task list once, and again while another
list is expected to fit in ``--seconds``; it reports the end-to-end metrics,
scaled to a nominal machine speed by a speed probe (see ``SpeedProbe``).
``--trace 1`` runs the list three times: untraced, traced (spans at the
module boundaries, see ``spans.py``), and once counting solver recursion
nodes; it reports the per-layer metrics and ignores ``--seconds``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a readable
report.  Exit code 2 means the benchmark could not run at all (for example,
no ``src/unidom`` next to this directory); then no result is printed.
"""

from __future__ import annotations

import sys

# Leave no bytecode caches in the checkout, and compile the package afresh in
# every set-up so that each one does the same work.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, count_nodes, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checker, Task, load_reference, make_tasks, warmup_task  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_BEFORE, SETUPS_AFTER = 6, 5
CHILD_TIMEOUT = 180
# The speed probe: a fixed loop timed every PROBE_PERIOD seconds of a run.
# End-to-end times are scaled to a machine on which it takes PROBE_NOMINAL_S.
PROBE_PERIOD = 0.1
PROBE_NOMINAL_S = 0.001
_PROBE_MASKS = tuple((0x9E3779B1 * (i + 1)) & 0xFFFFF for i in range(110))


def _probe_work() -> int:
    """Fixed pure-Python work (bit operations, a dict, a sort) that shares no
    code with the package, so a change to the package cannot change it."""
    acc = 0
    masks = _PROBE_MASKS
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            x = masks[i] | masks[j]
            acc += (x & -x).bit_length() + x.bit_count()
    table = {k: k ^ acc for k in range(300)}
    return acc + sum(sorted(table.values())[:10])


class SpeedProbe:
    """Times ``_probe_work`` from a SIGALRM handler every ``PROBE_PERIOD``
    seconds while the workload runs, which samples how fast the machine ran
    at evenly spaced moments, inside long tasks too.

    A shared machine's speed drifts by a fifth between runs minutes apart
    and switches between levels every few seconds; dividing a run's times by
    its mean probe time takes that drift out of the end-to-end metrics.  The
    probe costs about one percent of the run."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that turns this run's seconds into nominal-machine seconds."""
        if not self.samples:  # a run shorter than one probe period
            self._sample(None, None)
        return PROBE_NOMINAL_S / statistics.fmean(self.samples)


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def fresh_import():
    """Import ``unidom.cli`` from this checkout's ``src``, dropping any earlier import."""
    if not (SRC / "unidom" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'unidom'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "unidom" or m.startswith("unidom.")]:
        del sys.modules[name]
    cli = importlib.import_module("unidom.cli")
    if Path(sys.modules["unidom"].__file__).resolve().parent != (SRC / "unidom").resolve():
        raise SetupError("unidom was imported from outside this checkout")
    return cli


def call(cli, argv) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crashing task is a failed task, not a crashed benchmark
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Ledger:
    """Attempted and failed tasks, with the first few failure reasons."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, task: Task, rc, stdout: str, stderr: str) -> None:
        witness_text = None
        if task.witness_file and os.path.exists(task.witness_file):
            witness_text = Path(task.witness_file).read_text()
        problem = self.checker.check(task, rc, stdout, witness_text)
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(task.argv)}: {problem}; {stderr.strip()[-300:]}")


def run_list(cli, tasks: list[Task]) -> tuple[float, list]:
    """Run every task once, in order; (wall seconds, per-task call results)."""
    results = []
    start = time.perf_counter()
    for task in tasks:
        results.append(call(cli, task.argv))
    return time.perf_counter() - start, results


def check_list(ledger: Ledger, tasks: list[Task], results: list) -> None:
    for task, (_secs, rc, out, err) in zip(tasks, results):
        ledger.check(task, rc, out, err)


def setup_once(workload: str, seed: int, tmps: list[str]):
    """One set-up: fresh import, seeded task list, temporary directory (added
    to ``tmps``) and one warm-up call.  Returns (seconds, cli, tasks, warm-up
    task, its outcome)."""
    start = time.perf_counter()
    cli = fresh_import()
    tmps.append(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    tasks = make_tasks(workload, seed, tmps[-1])
    warm = warmup_task(workload, tmps[-1])
    outcome = call(cli, warm.argv)
    return time.perf_counter() - start, cli, tasks, warm, outcome


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tmps: list[str] = []
    probe = SpeedProbe()
    try:
        with contextlib.nullcontext() if trace else probe:
            setups = [setup_once(workload, seed, tmps) for _ in range(SETUPS_BEFORE)]
            _secs, cli, tasks, _warm, _outcome = setups[-1]
            ledger = Ledger(Checker(load_reference()))
            report = [f"# workload={workload} seed={seed} trace={int(trace)} "
                      f"tasks_per_list={len(tasks)}"]
            if trace:
                metrics = traced_metrics(cli, tasks, ledger, report)
            else:
                metrics = _untraced(cli, tasks, ledger, seconds, report)
                # set-ups at both ends of the run, so that no single slow or
                # fast spell of the machine sets setup_s
                setups += [setup_once(workload, seed, tmps) for _ in range(SETUPS_AFTER)]
                metrics["setup_s"] = {"value": statistics.median(s[0] for s in setups),
                                      "unit": "s"}
        check_list(ledger, [s[3] for s in setups], [s[4] for s in setups])
    finally:
        for tmp in tmps:
            shutil.rmtree(tmp, ignore_errors=True)
    if not trace:
        scale = probe.scale()
        report.append(f"# speed probe: {len(probe.samples)} samples, mean "
                      f"{1000 * PROBE_NOMINAL_S / scale:.4f} ms, scale {scale:.4f}; unscaled: "
                      + ", ".join(f"{k}={m['value']:.6g}" for k, m in metrics.items()))
        metrics = {k: {"value": m["value"] * scale if m["unit"] in ("s", "ms") else m["value"],
                       "unit": m["unit"]} for k, m in metrics.items()}
        # Reported, not bounded: on the few-task workloads a percentile is one
        # task's latency, and over ten seeds its spread reached 0.2.
        latency = {k: metrics.pop(k)["value"] for k in ("task_p50_ms", "task_p90_ms")}
        report.append("# task latency, scaled: " + ", ".join(
            f"{k}={v:.6g} ms" for k, v in latency.items()))
    report.append(f"# attempted={ledger.attempted} failed={ledger.failed} "
                  f"fail_frac={ledger.failed / ledger.attempted:.4f}")
    report += [f"# failure: {r}" for r in ledger.reasons]
    for name, m in metrics.items():
        report.append(f"{name} = {m['value']:.6g} {m['unit']}")
    return {
        "report": report,
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        },
    }


def _untraced(cli, tasks, ledger, seconds, report) -> dict:
    walls, samples = [], defaultdict(list)
    begin = time.perf_counter()
    while True:
        wall, results = run_list(cli, tasks)
        walls.append(wall)
        for task, (secs, *_rest) in zip(tasks, results):
            samples[task.key].append(secs)
        check_list(ledger, tasks, results)
        if time.perf_counter() - begin + wall > seconds:
            break
    # A task's latency is the least of its samples (copies and lists), as
    # timeit reports: single timings on a shared machine jump by a half, and
    # an order statistic nearer the middle jumps between its speed levels.
    latencies = [min(samples[task.key]) for task in tasks]
    report.append(f"# lists={len(walls)} list_walls_s={[round(w, 4) for w in walls]} "
                  f"latency_samples={sum(map(len, samples.values()))} "
                  f"distinct_tasks={len(samples)} percentile_base={len(latencies)}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "task_p50_ms": {"value": 1000 * nearest_rank(latencies, 0.5), "unit": "ms"},
        "task_p90_ms": {"value": 1000 * nearest_rank(latencies, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def traced_metrics(cli, tasks, ledger, report) -> dict:
    base_wall, results = run_list(cli, tasks)
    check_list(ledger, tasks, results)

    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, results = run_list(cli, tasks)
    finally:
        tracer.uninstall()
    check_list(ledger, tasks, results)

    counted = []
    nodes = count_nodes(lambda: counted.append(run_list(cli, tasks)))
    check_list(ledger, tasks, counted[0][1])

    report.append(f"# untraced_wall_s={base_wall:.4f} traced_wall_s={traced_wall:.4f} "
                  f"counting_wall_s={counted[0][0]:.4f}")
    if tracer.missing or tracer.broken:
        report.append(f"# absent spans: {sorted(tracer.missing | tracer.broken)}")
    if nodes is None:
        report.append("# absent: domination.exists_nodes (no recursion to count)")
    report += ["# spans (parent -> span):"] + tracer.render()
    return per_layer_metrics(tracer, nodes, traced_wall / base_wall - 1)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so no peak or state carries over."""
    env = {k: v for k, v in os.environ.items() if k != "UNIDOM_THREADS"}
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("\n".join(lines[:-1]))
        rows.append((workload, result))
    print(f"\n{'workload':<14} {'metric':<34} {'value':>14} unit")
    for workload, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload:<14} {'fail_frac':<34} {fail_frac:>14.4f} "
              f"ratio ({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"{workload:<14} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({w: r for w, r in rows}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # the measured configuration: one worker, whatever the caller's environment
    os.environ.pop("UNIDOM_THREADS", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
