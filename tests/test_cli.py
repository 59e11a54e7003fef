"""Command dispatch, report shapes, determinism, exit codes."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from conftest import locate
from toposqt.cli import main, run_command
from toposqt.contexts import build_poset, context_from_basis
from toposqt.problems import load_problem

with resources.as_file(resources.files("toposqt.data") / "spin2.json") as _p:
    SPIN2_PATH = str(_p)


@pytest.fixture(scope="module")
def spin2_poset():
    return build_poset([context_from_basis(np.eye(4))])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_contexts_command(capsys):
    code, out, _ = _run(capsys, "contexts", "--input", SPIN2_PATH)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 11
    assert report["dim"] == 4
    assert len(report["contexts"]) == 11
    ids = {entry["id"] for entry in report["contexts"]}
    assert all(sub in ids and sup in ids for sub, sup in report["leq"])


def test_spectrum_command(capsys, spin2_poset):
    code, out, _ = _run(capsys, "spectrum", "--input", SPIN2_PATH)
    assert code == 0
    report = json.loads(out)
    sizes = sorted(len(entry["characters"]) for entry in report["contexts"].values())
    assert sizes == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4]


def test_truth_command_matches_worked_example(capsys, spin2_poset, std_projectors):
    p = std_projectors
    code, out, _ = _run(
        capsys, "truth", "--input", SPIN2_PATH, "--prop", "Sz_in_-3_-1", "--state", "psi1"
    )
    assert code == 0
    report = json.loads(out)
    maximal = locate(spin2_poset, [p[0], p[1], p[2], p[3]])
    v2 = locate(spin2_poset, [p[1], p[0] + p[2] + p[3]])
    v3 = locate(spin2_poset, [p[2], p[0] + p[1] + p[3]])
    v23 = locate(spin2_poset, [p[1], p[2], p[0] + p[3]])
    v24 = locate(spin2_poset, [p[1], p[3], p[0] + p[2]])
    sieves = report["sieves"]
    assert sorted(sieves[maximal.id]["members"]) == sorted([v2.id, v3.id, v23.id])
    assert sieves[v24.id]["members"] == [v2.id]
    assert sieves[v23.id]["members"] == sorted([v23.id, v2.id, v3.id])


def test_daseinize_outer_and_inner(capsys, spin2_poset, std_projectors):
    p = std_projectors
    code, out, _ = _run(
        capsys, "daseinize", "--input", SPIN2_PATH, "--prop", "Sz_in_1.3_2.3"
    )
    assert code == 0
    outer = json.loads(out)
    maximal = locate(spin2_poset, [p[0], p[1], p[2], p[3]])
    assert outer["contexts"][maximal.id]["characters"] == [0]
    code, out, _ = _run(
        capsys,
        "daseinize",
        "--input",
        SPIN2_PATH,
        "--prop",
        "Sz_in_1.3_2.3",
        "--mode",
        "inner",
    )
    inner = json.loads(out)
    v2 = locate(spin2_poset, [p[1], p[0] + p[2] + p[3]])
    assert inner["contexts"][v2.id]["characters"] == []


def test_pseudo_state_command(capsys, spin2_poset, std_projectors):
    p = std_projectors
    code, out, _ = _run(capsys, "pseudo-state", "--input", SPIN2_PATH, "--state", "psi2")
    assert code == 0
    report = json.loads(out)
    v13 = locate(spin2_poset, [p[0], p[2], p[1] + p[3]])
    # outer daseinisation of the second ray there is p2 + p4: one character
    assert report["contexts"][v13.id]["characters"] == [2]


def test_value_command(capsys, spin2_poset, std_projectors):
    p = std_projectors
    v1 = locate(spin2_poset, [p[0], p[1] + p[2] + p[3]])
    code, out, _ = _run(
        capsys, "value", "--input", SPIN2_PATH, "--observable", "Sz", "--context", v1.id
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["intervals"]) == 2
    by_atom = {entry["character_atom"]: entry for entry in report["intervals"]}
    assert by_atom[0]["mu"][v1.id] == 2.0
    assert by_atom[0]["nu"][v1.id] == 2.0
    assert by_atom[1]["mu"][v1.id] == -2.0
    assert by_atom[1]["nu"][v1.id] == 0.0


def test_heyting_check_command(capsys, spin2_poset):
    v1_id = spin2_poset.ids[-1]  # a two-atom context
    code, out, _ = _run(
        capsys, "heyting-check", "--input", SPIN2_PATH, "--context", v1_id
    )
    assert code == 0
    report = json.loads(out)
    entry = report["contexts"][v1_id]
    assert entry["sieve_count"] == 2
    assert entry["violations"] == 0


def test_sections_command(capsys):
    code, out, _ = _run(capsys, "sections", "--input", SPIN2_PATH)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4
    assert len(report["sections"]) == 4


def test_sections_budget_zero_is_domain_error(capsys):
    code, out, err = _run(capsys, "sections", "--input", SPIN2_PATH, "--budget", "0")
    assert code == 1
    assert out == ""
    assert "exceeded the budget of 0 nodes" in err


def test_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, "truth", "--input", SPIN2_PATH, "--prop", "Sz_in_-3_-1", "--state", "psi1")
    _, second, _ = _run(capsys, "truth", "--input", SPIN2_PATH, "--prop", "Sz_in_-3_-1", "--state", "psi1")
    assert first == second
    _, first, _ = _run(capsys, "contexts", "--input", SPIN2_PATH)
    _, second, _ = _run(capsys, "contexts", "--input", SPIN2_PATH)
    assert first == second


def test_table_format(capsys):
    code, out, _ = _run(
        capsys,
        "truth",
        "--input",
        SPIN2_PATH,
        "--prop",
        "Sz_in_-3_-1",
        "--state",
        "psi1",
        "--format",
        "table",
    )
    assert code == 0
    assert "truth of Sz_in_-3_-1 in state psi1" in out
    code, out, _ = _run(capsys, "contexts", "--input", SPIN2_PATH, "--format", "table")
    assert code == 0
    assert "11 contexts" in out


def test_domain_errors_exit_one(capsys):
    code, _, err = _run(capsys, "truth", "--input", SPIN2_PATH, "--prop", "nope", "--state", "psi1")
    assert code == 1
    assert "error:" in err
    code, _, err = _run(capsys, "contexts", "--input", "/nonexistent/file.json")
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command", "--input", SPIN2_PATH])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["truth"])  # missing required --input
    assert exc.value.code == 2
    assert main([]) == 2


def test_missing_option_is_domain_error(capsys):
    code, _, err = _run(capsys, "truth", "--input", SPIN2_PATH, "--state", "psi1")
    assert code == 1
    assert "requires --prop" in err


def test_run_command_rejects_unknown(capsys):
    problem = load_problem(SPIN2_PATH)
    with pytest.raises(ValueError):
        run_command("bogus", problem, {})


def test_contexts_command_takes_no_context_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["contexts", "--input", SPIN2_PATH, "--context", "ctx-0000000000"])
    assert exc.value.code == 2


_NAN_INTERVAL = {"p": {"observable": "Sz", "interval": [float("nan"), 1.0]}}
_INF_INTERVAL = {"p": {"observable": "Sz", "interval": [0.0, float("inf")]}}
_NAN_STATE = {"psi": [[float("nan"), 0.0], [0, 0], [0, 0], [0, 0]]}
_HUGE_STATE = {"psi": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}
_LIST_OBSERVABLE = {"p": {"observable": ["Sz"], "interval": [0.0, 1.0]}}


@pytest.mark.parametrize(
    "key,value,path",
    [
        ("states", [], "states"),
        ("observables", [], "observables"),
        ("propositions", [], "propositions"),
        ("bases", 5, "bases"),
        ("projector_sets", 7, "projector_sets"),
        ("tolerances", {"tau": "x"}, "tolerances.tau"),
        ("tolerances", {"tau": 0.5}, "tolerances.tau"),
        ("tolerances", {"tau": 2}, "tolerances.tau"),
        ("tolerances", {"tau_eig": float("nan")}, "tolerances.tau_eig"),
        ("propositions", _NAN_INTERVAL, "propositions.p.interval[0]"),
        ("propositions", _INF_INTERVAL, "propositions.p.interval[1]"),
        ("states", _NAN_STATE, "states.psi"),
        ("states", _HUGE_STATE, "states.psi"),
        ("propositions", _LIST_OBSERVABLE, "propositions.p"),
    ],
    ids=["states", "observables", "propositions", "bases", "projector_sets", "tau",
         "tau_at_bound", "tau_above_one",
         "tau_eig_nan", "interval_nan", "interval_inf", "state_nan", "state_huge_int", "observable_name_list"],
)
def test_malformed_problem_file_is_domain_error(capsys, tmp_path, key, value, path):
    raw = json.loads(Path(SPIN2_PATH).read_text(encoding="utf-8"))
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = _run(capsys, "contexts", "--input", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}:")
    assert "Traceback" not in err
