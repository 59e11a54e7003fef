"""Self-test of the benchmark at tiny size, with negative controls.

Run from the repository root::

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from toposqt.logic import Sieve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    metrics, tally, info = run.measure(name, seed=3, seconds=0.1, small=True)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert tally.attempted > 1 and tally.failed == 0, tally.messages


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    metrics, tally, info = run.trace(name, seed=3, seconds=0.1, small=True)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    missing = [key for key, (value, _) in metrics.items() if value is None]
    assert missing == ["contexts.build_poset_ms.dim6", "contexts.build_poset_ms.dim7"]  # not built at tiny size
    assert tally.failed == 0, tally.messages
    assert metrics["logic.law_violations"][0] == 0
    assert metrics["logic.excluded_middle_failures"][0] > 0
    assert metrics["valuation.sections_found"][0] == workloads.EXPECTED_SECTIONS["spin2"]


def test_exact_counts_do_not_depend_on_the_seed():
    first, _, _ = run.trace("heyting", seed=5, seconds=0.1, small=True)
    second, _, _ = run.trace("heyting", seed=6, seconds=0.1, small=True)
    for key, (value, unit) in first.items():
        if unit == "count":
            assert second[key][0] == value, key


def test_single_basis_counts_match_the_closed_form():
    for dim in (4, 5, 6, 7):
        bases = [list(np.eye(dim))]
        assert checks.expected_counts(bases)["contexts"] == 2**dim - dim - 1


class _PermutedPoset:
    """A poset whose first strict restriction table with two targets is reversed."""

    def __init__(self, poset):
        self._poset = poset
        self._bad = next(
            (sup, sub)
            for sup in poset.ids
            for sub in poset.down_ids(sup)
            if sub != sup and len(set(poset.restriction_indices(sup, sub))) > 1
        )

    def __getattr__(self, name):
        return getattr(self._poset, name)

    def __iter__(self):
        return iter(self._poset)

    def __len__(self):
        return len(self._poset)

    def restriction_indices(self, sup, sub):
        table = self._poset.restriction_indices(sup, sub)
        return tuple(reversed(table)) if (sup, sub) == self._bad else table


def test_permuted_restriction_table_is_counted_failed():
    w = workloads.make("query", 3, ROOT, small=True)
    w.setup(NullTracer())
    assert w.prepare_checks(NullTracer()) == []
    s = w.shipped["spin2"]
    s.poset = _PermutedPoset(s.poset)
    errors = w.prepare_checks(NullTracer())
    assert any("maps an atom below" in e for e in errors)
    tally = run.Tally()
    tally.record("query.poset", errors)
    assert (tally.attempted, tally.failed) == (1, 1)


def _corrupted(op, corrupt):
    inner = op.run

    def run_corrupted(tr):
        return corrupt(inner(tr))

    return workloads.Op(op.kind, op.tag, run_corrupted, op.check)


def _flip_member(answer):
    sieves, em_failures, violations, implications = answer
    k = next(k for k, s in enumerate(sieves) if len(s.members) >= 2)
    flipped = Sieve(sieves[k].base, frozenset(sorted(sieves[k].members)[1:]))
    return sieves[:k] + (flipped,) + sieves[k + 1 :], em_failures, violations, implications


def test_flipped_sieve_member_is_counted_failed():
    w = workloads.make("heyting", 3, ROOT, small=True)
    w.setup(NullTracer())
    w.prepare_checks(NullTracer())
    ops = [op for op in w.ops() if op.kind == "heyting.context" and op.tag == "spin2.a4"]
    tally = run.Tally()
    run.run_pass(ops, NullTracer(), tally, [], "heyting", 0)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.run_pass([_corrupted(ops[0], _flip_member)], NullTracer(), tally, [], "heyting", 1)
    assert (tally.attempted, tally.failed) == (2, 1)


def _far_from_identity(result):
    """The context whose outer approximation is farthest from the identity."""
    return max(result.per_context_projector.items(), key=lambda kv: np.linalg.norm(kv[1] - np.eye(len(kv[1]))))


def _outer_to_identity(result):
    cid, Q = _far_from_identity(result)
    projectors = dict(result.per_context_projector, **{cid: np.eye(len(Q), dtype=complex)})
    return dataclasses.replace(result, per_context_projector=projectors)


def _empty_sieves(element):
    return type(element)({cid: Sieve(cid, frozenset()) for cid in element.sieves})


def _zero_intervals(pairs):
    return [(ch, dataclasses.replace(p, mu=dict.fromkeys(p.mu, 0.0), nu=dict.fromkeys(p.nu, 0.0))) for ch, p in pairs]


def _outer_not_identity(result):
    cid, Q = _far_from_identity(result)
    return np.linalg.norm(Q - np.eye(len(Q))) > 0.5


@pytest.mark.parametrize(
    "kind, corrupt, changes",
    [
        ("query.daseinise", _outer_to_identity, _outer_not_identity),
        ("query.pseudo_state", _outer_to_identity, _outer_not_identity),
        ("query.truth.aligned", _empty_sieves, lambda e: any(s.members for s in e.sieves.values())),
        ("query.value_sweep", _zero_intervals, lambda pairs: True),
    ],
)
def test_wrong_query_answers_are_counted_failed(kind, corrupt, changes):
    """Answers the one-sided checks would pass (an outer approximation set to
    the identity, all-empty sieves, zero intervals) must fail."""
    w = workloads.make("query", 3, ROOT, small=True)
    w.setup(NullTracer())
    w.prepare_checks(NullTracer())
    ops = [op for op in w.ops() if op.kind == kind and changes(op.run(NullTracer()))]
    assert ops
    tally = run.Tally()
    run.run_pass(ops, NullTracer(), tally, [], "query", 0)
    assert tally.failed == 0, tally.messages
    run.run_pass([_corrupted(op, corrupt) for op in ops], NullTracer(), tally, [], "query", 1)
    assert tally.failed == len(ops)


def test_corrupted_report_and_raising_op_are_counted_failed():
    w = workloads.make("build", 3, ROOT, small=True)
    w.setup(NullTracer())
    w.prepare_checks(NullTracer())
    op = next(op for op in w.ops() if op.tag == "spin2")

    def drop_inclusion(answer):
        problem, text = answer
        report = json.loads(text)
        report["leq"] = report["leq"][1:]
        return problem, json.dumps(report)

    def boom(tr):
        raise RuntimeError("boom")

    tally = run.Tally()
    run.run_pass([_corrupted(op, drop_inclusion), workloads.Op(op.kind, op.tag, boom, op.check)], NullTracer(), tally, [], "build", 0)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_fails_without_the_library_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
