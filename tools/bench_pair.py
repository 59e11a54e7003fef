"""Run the benchmark in pairs, parent checkout against this tree, and write a BENCH record.

Usage, from the root of this checkout::

    python3 tools/bench_pair.py --parent DIR --slug NAME \\
        --pairs build:1-10 --held-out build:20261017 --pairs query:1 --pairs heyting:1 \\
        --claim TEXT [--traced heyting:1-3] [--seconds 20]

Each pair runs ``benchmarks/run.py --workload W --seed N --seconds S`` once in
the parent checkout ``DIR`` and once in this tree, one after the other; the
side that runs first alternates from pair to pair, so drift of the host's
speed falls on both sides alike.  ``--pairs``, ``--held-out`` and ``--traced``
take a workload and a seed list (``1-10``, ``3,7``, or both joined by commas)
and may be repeated; ``--traced`` pairs run with ``--trace 1`` and report the
per-layer metrics.  ``BENCH_<NAME>.json`` gets every run's last JSON line, and
for each workload the quartiles of each metric on both sides over the
``--pairs`` seeds, with the number of pairs in which this tree was lower.
Held-out and traced pairs are summarised apart from those.  ``--claim`` is
required and may not be blank: a record that claims no gain says ``none``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> tuple[str, list[int]]:
    workload, _, spec = text.partition(":")
    seeds: list[int] = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return workload, seeds


def _claim(text: str) -> str:
    if not text.strip():
        raise argparse.ArgumentTypeError("the claim is blank; a record that claims no gain says 'none'")
    return text


def _describe(checkout: Path) -> dict:
    # The commit, whether the tree differs from it, and a hash of the library
    # source that was measured.
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "toposqt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(checkout / "src").as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "src")),
            "src_sha256": digest.hexdigest()}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command[1:])} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def _summary(records: list[dict]) -> dict:
    # Per workload and metric: both sides' quartiles over the seeds, and the
    # pairs in which this tree's value was lower.
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        pairs = [r for r in records if r["workload"] == workload]
        summary[workload] = {}
        for metric in pairs[0]["parent"]["metrics"]:
            parent = [r["parent"]["metrics"][metric]["value"] for r in pairs]
            change = [r["change"]["metrics"][metric]["value"] for r in pairs]
            base = statistics.median(parent)
            summary[workload][metric] = {
                "parent": _quartiles(parent),
                "change": _quartiles(change),
                "median_change_pct": 100.0 * (statistics.median(change) / base - 1.0) if base else None,
                "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
        summary[workload]["failed"] = {side: sum(r[side]["failed"] for r in pairs) for side in ("parent", "change")}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--slug", required=True, help="the record is written to BENCH_<slug>.json")
    parser.add_argument("--pairs", type=_seeds, action="append", default=[], metavar="WORKLOAD:SEEDS")
    parser.add_argument("--held-out", type=_seeds, action="append", default=[], metavar="WORKLOAD:SEEDS")
    parser.add_argument("--traced", type=_seeds, action="append", default=[], metavar="WORKLOAD:SEEDS")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", type=_claim, required=True, help="one line: what the change claims, or 'none'")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    runs = [(w, s, False, 0) for w, seeds in args.pairs for s in seeds]
    runs += [(w, s, True, 0) for w, seeds in args.held_out for s in seeds]
    runs += [(w, s, False, 1) for w, seeds in args.traced for s in seeds]
    records = []
    for i, (workload, seed, held_out, trace) in enumerate(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        record = {"workload": workload, "seed": seed, "held_out": held_out, "trace": trace, "first": order[0]}
        for side in order:
            record[side] = _run(sides[side], workload, seed, args.seconds, trace)
        records.append(record)
        shown = "trace.overhead_pct" if trace else "run_s"
        print(f"{workload} seed {seed}: {shown} parent {record['parent']['metrics'][shown]['value']:.4f}"
              f" change {record['change']['metrics'][shown]['value']:.4f}", file=sys.stderr)
    plain = [r for r in records if not r["trace"]]

    document = {
        "name": args.slug,
        "claim": args.claim,
        "command": f"python3 benchmarks/run.py --workload W --seed N --seconds {args.seconds:g}",
        "written_by": "python3 tools/bench_pair.py --parent PARENT " + " ".join(
            [f"--slug {args.slug}", f"--seconds {args.seconds:g}"]
            + [f"--pairs {w}:{','.join(map(str, s))}" for w, s in args.pairs]
            + [f"--held-out {w}:{','.join(map(str, s))}" for w, s in args.held_out]
            + [f"--traced {w}:{','.join(map(str, s))}" for w, s in args.traced]
        ),
        "protocol": "one run per side and pair, the side that runs first alternating from pair to pair;"
                    " summaries are over the untraced non-held-out pairs, held_out and traced apart",
        "hardware": {"machine": platform.machine(), "cpus": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(), "numpy": version("numpy")},
        "sides": {side: _describe(path) for side, path in sides.items()},
        "summary": _summary([r for r in plain if not r["held_out"]]),
        "held_out": _summary([r for r in plain if r["held_out"]]),
        "traced": _summary([r for r in records if r["trace"]]),
        "records": records,
    }
    out = ROOT / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
