"""Self-test of the benchmark: its checks can fail, and its counts repeat.

    python3 perfbench/selftest.py

1. Each workload is fed one known-bad op ahead of its stream and must
   report a failure ratio above 0; the same run without it must report 0.
   The bad inputs: recovery from the mean-max oracle (not additively
   decomposable), an audit whose expected failing family is swapped, an
   evaluate reference perturbed by 1e-6, and a corrupted CLI golden.
2. Two traced runs of each workload with the same seed, in fresh
   processes, must report identical deterministic per-layer metrics
   (counts, asks per bisection, shares and memo hit ratios).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC_SUFFIXES = (".count", ".asks_per_bisection", ".share", ".hit_ratio")


def known_bad_ops(workloads) -> dict:
    from itpref import controls, curves, sampling

    bad = {}
    bad["recover"] = workloads.cases_op("mean-max", [workloads.recover_case(
        controls.nonadditive_meanmax, curves.IdentityCurve(), None, 0)])
    name, factory, f_c, target = next(j for j in workloads.control_jobs() if j[0] == "flat-segment")
    swapped = "ST" if target != "ST" else "M"
    bad["audit"] = workloads.audit_job(f"{name}-swapped", factory, (0,), {0: f_c}, [swapped])
    rng = random.Random(workloads.DEFAULT_SEEDS["evaluate"] + workloads.CLOSED_FORM_OFFSET)
    rep, a = workloads.exp_rep(rng)
    t = rep.space.last_index
    f = sampling.random_act(rng, rep.space, t)
    bad["evaluate"] = workloads.cce_exp_op(rep, a, 0, t, f, perturb=1e-6)
    goldens = json.loads(workloads.GOLDENS.read_text(encoding="utf-8"))
    corrupted = dict(goldens["cce-villa"], stdout=goldens["cce-villa"]["stdout"] + " ")
    bad["cli"] = workloads.cli_op("cce-villa-corrupted", workloads.CLI_COMMANDS["cce-villa"],
                                  corrupted)
    return bad


def fail_ratio(run, workload, first_op=None) -> float:
    """Failure ratio of a short timed run (at least one op), optionally with
    ``first_op`` put ahead of the workload's stream."""
    stream = workload.stream
    if first_op is not None:
        workload.stream = [first_op] + stream
    try:
        durations, failures, _, _ = run.timed_run(workload, 1e-3)
    finally:
        workload.stream = stream
    return failures.count / len(durations)


def checks_can_fail() -> bool:
    import run
    import workloads

    ok = True
    for name, op in known_bad_ops(workloads).items():
        workload = workloads.BUILDERS[name](workloads.DEFAULT_SEEDS[name])
        clean = fail_ratio(run, workload)
        dirty = fail_ratio(run, workload, op)
        passed = clean == 0 and dirty > 0
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: fail_ratio {clean} on the stream, "
              f"{dirty} with known-bad op {op.label}", flush=True)
    return ok


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(DETERMINISTIC_SUFFIXES)}


def counts_repeat() -> bool:
    import run

    ok = True
    for name in run.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        differing = sorted(k for k in first if first[k] != second.get(k))
        passed = not differing and first.keys() == second.keys()
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {len(first)} deterministic metrics "
              f"identical across two traced runs" + (f"; differ: {differing}" if differing else ""),
              flush=True)
    return ok


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    ok = checks_can_fail()
    ok = counts_repeat() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
