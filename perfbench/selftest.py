#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and output checks (about a minute).

    python3 perfbench/selftest.py [--seed 7]     # from the root of a checkout

1. Exact counts repeat: the traced and counting passes run twice over one
   seed's task lists (the cheap tasks of all three workloads), and
   ``search.masks``, ``domination.exists_calls``, ``domination.exists_nodes``,
   ``domination.gamma_solves_per_cert`` and ``graph.iso_calls`` must read the
   same both times, and not 0.
2. A wrapped name that is gone (here ``_exists_cover``, renamed) makes the
   metrics built on it absent, leaves the others and every task's outcome
   alone, and no wrapper stays bound after a traced pass.
3. The checks catch wrong answers: each corrupted output (a count off by
   one, a dropped witness line, a maximum off by one, a failed certificate,
   a non-zero exit) must raise the failed fraction above that of the genuine
   outputs, which is 0.

Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from run import ROOT, Ledger, check_list, fresh_import, run_list, traced_metrics  # noqa: E402
from workloads import WORKLOADS, Checker, load_reference, make_tasks  # noqa: E402

EXACT = ("search.masks", "domination.exists_calls", "domination.exists_nodes",
         "domination.gamma_solves_per_cert", "graph.iso_calls")


def cheap_tasks(seed: int, tmp: str):
    """The tasks of every workload that finish in well under a second."""
    tasks = []
    for workload in WORKLOADS:
        tasks += [t for t in make_tasks(workload, seed, tmp)
                  if (t.n <= 8 if workload != "certify" else t.gamma <= 5)]
    return tasks


def exact_counts_repeat(cli, tasks) -> bool:
    runs = []
    for _ in range(2):
        ledger = Ledger(Checker(load_reference()))
        metrics = traced_metrics(cli, tasks, ledger, [])
        runs.append({name: metrics[name]["value"] for name in EXACT})
        if ledger.failed:
            print(f"FAIL traced passes: {ledger.reasons}")
            return False
    ok = runs[0] == runs[1] and all(runs[0].values())
    print(f"{'PASS' if ok else 'FAIL'} exact counts repeat: {runs[0]} / {runs[1]}")
    return ok


def package_restored() -> bool:
    """No tracer or counter wrapper is left bound anywhere in the package."""
    left = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
            if name == "unidom" or name.startswith("unidom.")
            for attr, value in vars(mod).items()
            if getattr(value, "__qualname__", "").endswith(("<locals>.wrapper", "<locals>.counted"))]
    print(f"{'FAIL' if left else 'PASS'} package restored after tracing {left}")
    return not left


def missing_names_tolerated(cli, tasks) -> bool:
    """A renamed solver entry point makes its metrics absent, nothing else."""
    saved = spans.SPANS, spans.NODE_COUNTED
    spans.SPANS = tuple(
        (span, module, "_renamed_away" if span == "domination.exists" else fname, where)
        for span, module, fname, where in saved[0])
    spans.NODE_COUNTED = (saved[1][0], "_renamed_away")
    try:
        ledger = Ledger(Checker(load_reference()))
        metrics = traced_metrics(cli, tasks, ledger, [])
    finally:
        spans.SPANS, spans.NODE_COUNTED = saved
    absent = {"domination.exists_calls", "domination.exists_s", "domination.exists_nodes",
              "search.solver_pass_frac", "search.mask_self_s"}
    ok = (ledger.failed == 0 and absent.isdisjoint(metrics)
          and {"search.masks", "domination.enum_calls", "graph.iso_calls"} <= set(metrics))
    print(f"{'PASS' if ok else 'FAIL'} missing names: {sorted(absent & set(metrics))} reported, "
          f"{ledger.failed} failed tasks")
    return ok


def _corrupt_json(out: str, **changes) -> str:
    doc = json.loads(out)
    doc.update(changes)
    return json.dumps(doc)


def corruptions_detected(cli, tasks) -> bool:
    _wall, results = run_list(cli, tasks)
    genuine = Ledger(Checker(load_reference()))
    check_list(genuine, tasks, results)
    base = genuine.failed / genuine.attempted
    ok = base == 0
    print(f"{'PASS' if ok else 'FAIL'} genuine outputs: fail_frac={base:.4f} {genuine.reasons}")

    def first(workload, pred=lambda doc: True):
        return next(i for i, t in enumerate(tasks)
                    if t.workload == workload and pred(json.loads(results[i][2])))

    i_count = first("witness_count")
    i_drop = first("witness_count", lambda doc: doc["count"] > 1)
    i_max = first("search_max")
    i_cert = first("certify")
    drop_task = tasks[i_drop]
    dropped = Path(drop_task.witness_file).read_text().splitlines()[1:]
    dropped_file = Path(drop_task.witness_file).with_suffix(".dropped")
    dropped_file.write_text("".join(line + "\n" for line in dropped))

    def edit(i, **changes):
        secs, rc, out, err = results[i]
        return secs, rc, _corrupt_json(out, **changes), err

    cases = {
        "witness count off by one": (i_count, edit(
            i_count, count=json.loads(results[i_count][2])["count"] + 1), tasks[i_count]),
        "dropped witness line": (i_drop, results[i_drop],
                                 replace(drop_task, witness_file=str(dropped_file))),
        "search maximum off by one": (i_max, edit(
            i_max, max_size=json.loads(results[i_max][2])["max_size"] - 1), tasks[i_max]),
        "certificate not passed": (i_cert, edit(i_cert, passed=False), tasks[i_cert]),
        "non-zero exit": (i_cert, (0.0, 1, results[i_cert][2], ""), tasks[i_cert]),
    }
    for name, (i, bad, bad_task) in cases.items():
        ledger = Ledger(Checker(load_reference()))
        check_list(ledger, tasks[:i] + [bad_task] + tasks[i + 1:],
                   results[:i] + [bad] + results[i + 1:])
        frac = ledger.failed / ledger.attempted
        caught = frac > base
        ok = ok and caught
        print(f"{'PASS' if caught else 'FAIL'} {name}: fail_frac {base:.4f} -> {frac:.4f}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    cli = fresh_import()
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        tasks = cheap_tasks(args.seed, tmp)
        ok = exact_counts_repeat(cli, tasks)
        ok = missing_names_tolerated(cli, tasks) and ok
        ok = package_restored() and ok
        ok = corruptions_detected(cli, tasks) and ok
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
