"""itpref benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload recover --seed 77 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src``.  ``--trace 0`` times ops back to back for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
traced op list three times: untraced to warm up, with spans around every
call into the library (see ``spans.py``), and untraced again; it reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
the JSON result; a fuller record, with the Python version, core count and
revision, goes to ``.perfbench/``.  End-to-end times are CPU times corrected
for the host core's speed (see ``hostspeed.py``).  See ``perfbench/README.md`` for
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, thread_time

from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("recover", "audit", "evaluate", "cli")
HELD_OUT_SEED = 7919      # kept for confirming later claims; never tuned on
SETUP_SAMPLES = 7         # this process plus six fresh interpreters
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the acceptance suite's seed for the workload)")
    p.add_argument("--seconds", type=float, default=20.0, help="timed run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time and exit (used for set-up samples)")
    return p.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "revision": git_revision(),
        "src_sha256": source_digest(),
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def source_digest() -> str:
    """Digest of the library sources, which identifies the code under test
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "itpref").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Failures:
    """Counts failed ops and reports the first few on stderr."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, label: str, detail: str) -> None:
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAILED op {label}: {detail}", file=sys.stderr)


class CpuClock:
    """The thread's CPU time, uncorrected: (cpu_s, cpu_s) per op.  The
    library is single-threaded and CPU-bound, so on an idle machine that
    equals wall time, and it leaves out time the process spends preempted
    by other tenants of a shared host."""

    def begin(self) -> None:
        self._t0 = thread_time()

    def end(self) -> tuple[float, float]:
        cpu = thread_time() - self._t0
        return cpu, cpu


def attempt(op, failures: Failures, clock, after_run=None) -> tuple[float, float]:
    """Run one op (timed by ``clock``) and check it (untimed); returns the
    clock's (cpu_s, ref_s) for the op.  A raise or a failed check counts as a
    failure and never ends the run."""
    clock.begin()
    try:
        result = op.run()
    except Exception:
        dt = clock.end()
        if after_run is not None:
            after_run(op)
        failures.add(op.label, traceback.format_exc(limit=3).strip())
        return dt
    dt = clock.end()
    if after_run is not None:
        after_run(op)
    try:
        ok = op.check(result)
    except Exception:
        failures.add(op.label, "check raised: " + traceback.format_exc(limit=3).strip())
        return dt
    if not ok:
        failures.add(op.label, "output failed the workload's check")
    return dt


def timed_run(workload, seconds: float, clock=None) -> tuple[array, Failures, dict, float]:
    """Closed loop: the next op starts when the previous one and its check
    have returned, until ``seconds`` of wall time have passed and the
    current round of the workload's stream is complete.  Returns the ops'
    corrected times, the failures, the corrected times by op label and the
    ops' total uncorrected CPU time."""
    clock = CpuClock() if clock is None else clock
    durations = array("d")
    cpu_total = 0.0
    by_label: dict[str, array] = {}   # arrays keep bookkeeping out of peak RSS
    failures = Failures()
    stream = workload.stream
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline or k % workload.round_size:
        op = stream[k % len(stream)]
        cpu, dt = attempt(op, failures, clock)
        cpu_total += cpu
        durations.append(dt)
        by_label.setdefault(op.label, array("d")).append(dt)
        k += 1
    return durations, failures, by_label, cpu_total


def percentile_ms(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) in milliseconds, by
    ``statistics.quantiles`` with 100 cut points."""
    if len(values) < 2:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def setup_samples(args, seed: int, own: float) -> list[float]:
    """Corrected set-up time of this process plus that of fresh
    interpreters, each importing itpref cold and generating the same
    inputs."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, seed, workload, own_setup, clock) -> tuple[dict, dict]:
    durations, failures, by_label, cpu_total = timed_run(workload, args.seconds, clock)
    rss = peak_rss_mb()
    clock.stop()
    setups = setup_samples(args, seed, own_setup)
    busy = sum(durations)
    p99 = percentile_ms(durations, 99)
    metrics = {
        "ops_per_s": (len(durations) / busy, "1/s"),
        "op_ms.p50": (1000.0 * statistics.median(durations), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "attempted": len(durations),
        "failed": failures.count,
        "fail_ratio": failures.count / len(durations),
        "op_ms.p99": p99,
        "samples_beyond_p99": sum(1 for d in durations if 1000.0 * d > p99),
        "setup_samples_s": setups,
        "uncorrected_ops_per_s": len(durations) / cpu_total,
        "mean_burst_us": 1e6 * clock.mean_burst_s(),
        "p50_ms_by_label": {k: 1000.0 * statistics.median(v) for k, v in sorted(by_label.items())},
        "count_by_label": {k: len(v) for k, v in sorted(by_label.items())},
    }
    return metrics, extra


def traced(workload) -> tuple[dict, dict]:
    """Three passes over the same fixed op list: untraced to warm lazily
    computed state, traced, and untraced again as the overhead baseline."""
    import spans

    ops = [workload.stream[k % len(workload.stream)] for k in range(workload.traced_ops)]
    failures = Failures()
    clock = CpuClock()
    for op in ops:
        attempt(op, failures, clock)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s = 0.0
        for k, op in enumerate(ops):
            tracer.begin_op(k)
            traced_s += attempt(op, failures, clock, lambda o: tracer.end_op(o.label))[0]
        tracer.begin_op(len(ops))   # drops spans recorded by the last check
    finally:
        tracer.uninstall()
    untraced_s = sum(attempt(op, failures, clock)[0] for op in ops)
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    extra = {
        "attempted": 3 * len(ops),
        "failed": failures.count,
        "layers": {
            name: {"count": tracer.count[k], "total_s": tracer.total_s[k],
                   "self_s": tracer.self_s[k]}
            for k, name in enumerate(tracer.names)
        },
        "per_op": tracer.per_op,
    }
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "itpref" / "__init__.py").is_file():
        print(f"error: no itpref sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    clock = HostClock()
    clock.start()
    clock.begin()
    import itpref

    if Path(itpref.__file__).resolve().parent != ROOT / "src" / "itpref":
        print(f"error: itpref imported from {itpref.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workload = workloads.BUILDERS[args.workload](seed)
    own_setup = clock.end()[1]
    if args.setup_only or args.trace:
        clock.stop()
    if args.setup_only:
        print(repr(own_setup))
        return 0

    if args.trace:
        metrics, extra = traced(workload)
    else:
        metrics, extra = end_to_end(args, seed, workload, own_setup, clock)
    env = environment()
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "held_out_seed": HELD_OUT_SEED,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"env {json.dumps(env)}")
    if not args.trace:
        print(f"fail_ratio {extra['fail_ratio']!r} ({extra['failed']}/{extra['attempted']}); "
              f"op_ms.p99 {extra['op_ms.p99']!r} ({extra['samples_beyond_p99']} samples beyond)")
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
