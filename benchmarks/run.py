"""toposqt benchmark: one workload per run, closed loop, answers checked.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload build|query|heyting \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records a span
around every call into the library and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print every
metric by name with its unit.  The library is imported from ``src/`` of the
checkout; the run fails with exit status 2 if it is not there.
"""

from __future__ import annotations

import os

# One process and no extra threads: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run and its median reported.  The
#: first set-up precedes the timed phase; the others are spread between its
#: passes.
SETUP_REPEATS = {"build": 25, "query": 5, "heyting": 5}

#: Passes over the op list in a run of ``REFERENCE_SECONDS``; other lengths
#: scale it.  The count does not depend on how fast the code is, so runs of
#: two versions aggregate each op over the same number of samples.
PASSES = {"build": 5, "query": 11, "heyting": 55}
REFERENCE_SECONDS = 20.0

#: Percentiles the tail is chosen from, highest first.  Latency percentiles
#: are over every op run in the timed phase, one sample per op and pass.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest of ``TAIL_PERCENTILES`` with at least ten of ``n`` samples beyond it
    (the median when even that has fewer)."""
    return next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 50.0)


# -- host speed -----------------------------------------------------------------

#: Median time of ``calibration_loop`` on the reference host (see README.md).
CAL_REF_S = 1.0e-4

#: Calibration loops run before and after each set-up.
SETUP_CALIBRATIONS = 15

_CAL_MATRIX = np.eye(4) * 0.5

#: Every calibration of the run, for the printout.
CALIBRATIONS: list[float] = []


def calibration_loop() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy products,
    the same kind of work as the library's."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(600):
        total += i * i % 7
        table[i & 63] = total
    for _ in range(20):
        _CAL_MATRIX @ _CAL_MATRIX
    c = time.perf_counter() - t0
    CALIBRATIONS.append(c)
    return c


def reference_factor(calibrations: list[float]) -> float:
    """Factor that turns wall seconds into reference seconds, from the
    calibration loops run around the timed work.

    On a shared VM the speed of the whole host drifts by up to 60% for tens
    of seconds at a time, so a run may sit in a slow phase from start to end.
    The calibration loop slows down with the host but not with the library,
    so wall time times ``CAL_REF_S`` over the loop's median time follows the
    code.  The median makes one interrupted loop harmless.
    """
    return CAL_REF_S / statistics.median(calibrations)


def timed_setup(setup) -> float:
    """Run ``setup()``; returns its time in reference seconds."""
    cals = [calibration_loop() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - t0
    cals += [calibration_loop() for _ in range(SETUP_CALIBRATIONS)]
    return elapsed * reference_factor(cals)


# -- running ops ----------------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, kind: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{kind}: {errors[0]}")


def run_pass(ops, tr, tally: Tally, records: list, workload: str, pass_no: int) -> list[float]:
    """Run every op once; returns the op latencies in reference seconds,
    checks untimed.  A calibration loop runs right before and right after
    each op; their median over the pass sets the pass's reference factor."""
    if not ops:
        return []
    latencies = []
    cals = []
    for op in ops:
        op_id = len(records)
        records.append({"id": op_id, "workload": workload, "pass": pass_no, "kind": op.kind})
        gc.collect()  # no garbage from the previous op or check
        cals.append(calibration_loop())
        root = tr.open("bench.op", f"{op.kind}@{op.tag}", op_id)
        t0 = time.perf_counter()
        try:
            answer = op.run(tr)
            errors = None
        except Exception as exc:  # a raising op is a failed op, never a crash
            errors = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        tr.close(root)
        cals.append(calibration_loop())
        latencies.append(elapsed)
        if errors is None:
            root = tr.open("bench.check", f"{op.kind}@{op.tag}", op_id)
            try:
                errors = op.check(answer, tr)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            tr.close(root)
        tally.record(op.kind, errors)
    factor = reference_factor(cals)
    return [elapsed * factor for elapsed in latencies]


def pass_time(rows: list[list[float]]) -> float:
    """Time of one pass over the op list: every op at its median run."""
    return sum(statistics.median(col) for col in zip(*rows))


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes of the workload's op list in a run of ``seconds`` (at least one)."""
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def run_for(seconds: float, ops, tr, tally, records, workload, extra_setups=0, setup=None) -> list[list[float]]:
    """Closed loop over a fixed number of whole passes, filling about ``seconds``.

    ``setup`` is called ``extra_setups`` times, spread evenly between passes.
    """
    rows = [run_pass(ops, tr, tally, records, workload, 0)]
    passes = passes_for(workload, seconds)
    after = [max(1, min(passes, round((j + 1) * passes / extra_setups))) for j in range(extra_setups)]
    while True:
        for _ in range(after.count(len(rows))):
            setup()
        if len(rows) == passes:
            return rows
        rows.append(run_pass(ops, tr, tally, records, workload, len(rows)))


# -- untraced: end-to-end metrics ---------------------------------------------------


def measure(name: str, seed: int, seconds: float, small: bool = False) -> tuple[dict, Tally, dict]:
    import workloads
    from spans import NullTracer

    import_s = time.perf_counter() - T_START
    tr = NullTracer()
    tally = Tally()
    setup_times = []

    def setup():
        w = workloads.make(name, seed, ROOT, small)
        setup_times.append(timed_setup(lambda: w.setup(tr)))
        return w

    w = setup()
    tally.record(f"{name}.poset", w.prepare_checks(tr))
    ops = w.ops()
    gc.freeze()  # keeps the per-op collection short
    t0 = time.perf_counter()
    rows = run_for(seconds, ops, tr, tally, [], name, SETUP_REPEATS[name] - 1, setup)
    timed_wall_s = time.perf_counter() - t0
    latencies = [x for row in rows for x in row]
    p_tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (pass_time(rows), "s"),
        "op_p50_ms": (1e3 * float(np.percentile(latencies, 50.0)), "ms"),
        "op_tail_ms": (1e3 * float(np.percentile(latencies, p_tail)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "ops_per_pass": len(ops),
        "passes": len(rows),
        "tail_percentile": p_tail,
        "samples_beyond_tail": sum(1 for x in latencies if x > np.percentile(latencies, p_tail)),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "timed_wall_s": timed_wall_s,
        "calibration_median_s": statistics.median(CALIBRATIONS),
        "pass_s": [sum(row) for row in rows],
        "op_median_s": [statistics.median(col) for col in zip(*rows)],
    }
    return metrics, tally, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced: per-layer metrics ------------------------------------------------------


def trace(name: str, seed: int, seconds: float, small: bool = False) -> tuple[dict, Tally, dict]:
    """Trace one pass of every workload's op list, then alternate untraced and
    traced passes of the named workload for about ``seconds``."""
    import workloads
    from layer_metrics import layer_metrics
    from spans import NullTracer, Tracer

    tr = Tracer()
    tally = Tally()
    records: list[dict] = []
    built = {}
    for other in workloads.WORKLOADS:
        w = workloads.make(other, seed, ROOT, small)
        root = tr.open("bench.setup", other)
        w.setup(tr)
        tr.close(root)
        root = tr.open("bench.check", f"setup@{other}")
        poset_errors = w.prepare_checks(tr)
        tr.close(root)
        tally.record(f"{other}.poset", poset_errors)
        built[other] = (w, w.ops())
    gc.freeze()
    traced_rows: dict[str, list[list[float]]] = {}
    for other, (w, ops) in built.items():
        if other != name:
            traced_rows[other] = [run_pass(ops, tr, tally, records, other, 0)]
    run_pass(built["build"][0].ops(timed=False), tr, tally, records, "build.traced_only", 0)
    ops = built[name][1]
    plain_rows = [run_pass(ops, NullTracer(), tally, [], name, 0)]
    traced_rows[name] = [run_pass(ops, tr, tally, records, name, 0)]
    passes = max(1, passes_for(name, seconds) // 2)
    while len(plain_rows) < passes:
        plain_rows.append(run_pass(ops, NullTracer(), tally, [], name, len(plain_rows)))
        traced_rows[name].append(run_pass(ops, tr, tally, records, name, len(traced_rows[name])))
    overhead = 100.0 * (pass_time(traced_rows[name]) / pass_time(plain_rows) - 1.0)
    workloads_by_name = {k: v[0] for k, v in built.items()}
    metrics = layer_metrics(tr, records, workloads_by_name, name, overhead, small)
    out = ROOT / ".bench_out" / "traces" / f"{name}-seed{seed}.npz"
    tr.write(out, records)
    info = {
        "spans": len(tr.start),
        "trace_file": str(out.relative_to(ROOT)),
        "traced_passes": {k: len(v) for k, v in traced_rows.items()},
    }
    return metrics, tally, info


# -- reporting ----------------------------------------------------------------------


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or "none" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest() -> str:
    """sha256 over the library's source files, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "toposqt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "query", "heyting"))
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default 1; seed 20261017 is held out for confirming claims)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toposqt" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'toposqt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toposqt

    if Path(toposqt.__file__).resolve().parent != (SRC / "toposqt").resolve():
        print(f"error: toposqt imported from {toposqt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run = trace if args.trace else measure
    metrics, tally, info = run(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": tally.messages,
    }
    out = ROOT / ".bench_out" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(record['environment'])}")
    print(f"# {json.dumps({k: v for k, v in info.items() if not isinstance(v, list)})}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<45} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<45} {tally.failed / max(tally.attempted, 1):>14.6g} 1")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
