"""Command dispatch, report shapes, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import toposqt.cli
from conftest import locate
from toposqt.cli import main, render_json, run_command
from toposqt.contexts import build_poset, context_from_basis
from toposqt.errors import ValidationError
from toposqt.problems import load_problem, problem_from_dict, problem_poset

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


def _bases_sharing_rays(seed: int, dim: int = 5, count: int = 3) -> list[np.ndarray]:
    # A Haar-random orthonormal basis (as rows), then bases that each mix two
    # rays of the previous one by a random unitary and keep the others.
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0].T]
    for _ in range(count - 1):
        basis = bases[-1].copy()
        i, j = rng.choice(dim, size=2, replace=False)
        angle, phase = rng.uniform(0.2, 1.3), np.exp(2j * np.pi * rng.random())
        c, s = np.cos(angle), np.sin(angle) * phase
        basis[[i, j]] = c * basis[i] + s * basis[j], -np.conj(s) * basis[i] + c * basis[j]
        bases.append(basis)
    return bases


@pytest.mark.parametrize("seed", [3, 20261017])
def test_contexts_report_of_bases_sharing_rays(seed):
    # Contexts of bases that share rays share atoms; the report holds one
    # list per distinct atom, and writes as the standard library does.
    bases = _bases_sharing_rays(seed)
    problem = problem_from_dict(
        {"dim": 5, "bases": [[[[z.real, z.imag] for z in v] for v in basis] for basis in bases]}
    )
    report = run_command("contexts", problem, {})
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    entries = report["contexts"]
    assert len({id(m) for e in entries for m in e["atoms"]}) < sum(e["atom_count"] for e in entries)
    poset = problem_poset(problem)
    listed: dict[int, list] = {}
    for entry in entries:
        atoms = poset.get(entry["id"]).atoms
        expected = [
            [[[round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0] for z in row] for row in a.tolist()] for a in atoms
        ]
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(entry["atoms"]) == repr(expected)
        for a, m in zip(atoms, entry["atoms"]):
            assert listed.setdefault(id(a), m) is m


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


def test_value_command_decomposes_the_observable_once(capsys, monkeypatch):
    import toposqt.valuation
    from toposqt.operators import _clusters

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _clusters(*args, **kwargs)

    monkeypatch.setattr(toposqt.valuation, "_clusters", counted)
    code, out, _ = _run(capsys, "value", "--input", SPIN2_PATH, "--observable", "Sz")
    assert code == 0
    assert len(json.loads(out)["intervals"]) == 30
    assert len(calls) == 1


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


def test_heyting_check_all_triples(capsys):
    code, out, _ = _run(capsys, "heyting-check", "--input", SPIN2_PATH, "--triples", "all")
    assert code == 0
    for entry in json.loads(out)["contexts"].values():
        assert entry["triples_checked"] == entry["sieve_count"] ** 3
        assert entry["violations"] == 0


@pytest.mark.parametrize("value", ["0", "x", "-3", "1.5", ""])
def test_heyting_check_rejects_a_bad_triple_count(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["heyting-check", "--input", SPIN2_PATH, "--triples", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--triples" in err and "positive integer or 'all'" in err
    assert "Traceback" not in err
    with pytest.raises(ValidationError):
        run_command("heyting-check", load_problem(SPIN2_PATH), {"triples": 0})


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


def test_sections_negative_budget_is_refused(capsys):
    code, out, err = _run(capsys, "sections", "--input", SPIN2_PATH, "--budget", "-1")
    assert (code, out) == (1, "")
    assert err == "error: budget must be an integer >= 0, got -1\n"


def test_output_is_deterministic(capsys):
    _, first, _ = _run(capsys, "truth", "--input", SPIN2_PATH, "--prop", "Sz_in_-3_-1", "--state", "psi1")
    _, second, _ = _run(capsys, "truth", "--input", SPIN2_PATH, "--prop", "Sz_in_-3_-1", "--state", "psi1")
    assert first == second
    _, first, _ = _run(capsys, "contexts", "--input", SPIN2_PATH)
    _, second, _ = _run(capsys, "contexts", "--input", SPIN2_PATH)
    assert first == second


@pytest.mark.parametrize("form", ["json", "table"])
def test_a_standard_output_closed_before_the_report_ends_quietly(form):
    # The read end of the pipe is closed before the command starts: the first
    # write of the report fails.  The command ends in status 1 with nothing on
    # standard error, not in a BrokenPipeError traceback at the flush at exit.
    src = str(Path(toposqt.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toposqt.cli", "contexts", "--input", SPIN2_PATH, "--format", form],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_the_streamed_report_is_the_rendered_one(capsys, tmp_path):
    # A report of a few thousand parts, written in several chunks.
    path = tmp_path / "d7.json"
    basis = np.linalg.qr(np.random.default_rng(7).standard_normal((7, 7)) + 1j)[0].T
    path.write_text(json.dumps({"dim": 7, "bases": [[[[z.real, z.imag] for z in v] for v in basis]]}))
    code, out, err = _run(capsys, "contexts", "--input", str(path))
    assert (code, err) == (0, "")
    assert out == render_json(run_command("contexts", load_problem(path), {}))
    assert json.loads(out)["count"] == 2**7 - 7 - 1


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


@pytest.mark.parametrize("mode", ["foo", "", 0])
def test_run_command_refuses_an_unknown_daseinisation_mode(mode):
    # The CLI's choices hide this; a caller of run_command must not get
    # either approximation under another name.  Only an absent mode is outer.
    problem = load_problem(SPIN2_PATH)
    with pytest.raises(ValidationError, match=f"mode {mode!r};"):
        run_command("daseinize", problem, {"prop": "Sz_in_1.3_2.3", "mode": mode})


@pytest.mark.parametrize("triples", [True, False])
def test_run_command_refuses_a_bool_triple_count(triples):
    with pytest.raises(ValidationError, match="triples must be a positive integer"):
        run_command("heyting-check", load_problem(SPIN2_PATH), {"triples": triples})


@pytest.mark.parametrize("budget", ["10", 10.5, True])
def test_run_command_refuses_a_budget_that_is_not_an_integer(budget):
    with pytest.raises(ValidationError, match="budget must be an integer"):
        run_command("sections", load_problem(SPIN2_PATH), {"budget": budget})


@pytest.mark.parametrize(
    "command, given",
    [("daseinize", {"prop": "Sz_in_1.3_2.3"}), ("heyting-check", {}), ("sections", {})],
)
def test_the_defaults_of_mode_triples_and_budget_live_in_run_command(capsys, command, given):
    # The parser leaves each option unset, and run_command fills it in.
    argv = [command, "--input", SPIN2_PATH, *(f"--{k}={v}" for k, v in given.items())]
    args = vars(toposqt.cli._build_parser().parse_args(argv))
    assert [args.get(key) for key in ("mode", "triples", "budget")] == [None, None, None]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == render_json(run_command(command, load_problem(SPIN2_PATH), given))


def test_contexts_command_takes_no_context_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["contexts", "--input", SPIN2_PATH, "--context", "ctx-0000000000"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command,option,value,message",
    [
        ("pseudo-state", "--state", "nope", "unknown state 'nope'"),
        ("value", "--observable", "nope", "unknown observable 'nope'"),
    ],
)
def test_unknown_name_is_domain_error(capsys, command, option, value, message):
    code, out, err = _run(capsys, command, "--input", SPIN2_PATH, option, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


_NAN_INTERVAL = {"p": {"observable": "Sz", "interval": [float("nan"), 1.0]}}
_INF_INTERVAL = {"p": {"observable": "Sz", "interval": [0.0, float("inf")]}}
_NAN_STATE = {"psi": [[float("nan"), 0.0], [0, 0], [0, 0], [0, 0]]}
_HUGE_STATE = {"psi": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}
_LIST_OBSERVABLE = {"p": {"observable": ["Sz"], "interval": [0.0, 1.0]}}
_EXTRA_INTERVALS = {"p": {"observable": "Sz", "interval": [0.0, 1.0], "intervals": [0.0, 1.0]}}
_E = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
_NOT_SELF_ADJOINT = [[[float(j == i + 1), 0.0] for j in range(4)] for i in range(4)]
_TWO_BY_TWO = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
# (e0 +- e1)/sqrt(2), (e2 +- e3)/sqrt(2) to 10 decimals: orthonormal within
# 4e-11, which a tau of 1e-12 refuses.
_R = 0.7071067812
_TEN_DECIMAL_BASIS = [[[x, 0.0] for x in v] for v in ([_R, _R, 0, 0], [_R, -_R, 0, 0], [0, 0, _R, _R], [0, 0, _R, -_R])]
_LOAD_ERRORS = [
    ("dim", 1, "dim", "dim_small"),
    ("dim", "4", "dim", "dim_not_int"),
    ("tolerances", {"tau": -1e-9}, "tolerances.tau", "tau_negative"),
    ("tolerances", {"tau_eig": 0}, "tolerances.tau_eig", "tau_eig_zero"),
    ("observables", {"A": _TWO_BY_TWO}, "observables.A", "matrix_wrong_size"),
    ("observables", {"A": _NOT_SELF_ADJOINT}, "observables.A", "matrix_not_self_adjoint"),
    ("observables", {"A": 5}, "observables.A", "matrix_not_a_list"),
    ("observables", {"A": [[[1.0, 0.0]], [[0.0, 0.0]]]}, "observables.A", "matrix_not_square"),
    ("bases", [5], "bases[0]", "basis_not_a_list"),
    ("bases", [_E[:3]], "bases[0]", "basis_short"),
    ("bases", [], "bases", "no_basis"),
    (("tolerances", "bases"), ({"tau": 1e-12}, [_TEN_DECIMAL_BASIS]), "bases[0]", "basis_ten_decimals_at_tau_1e-12"),
    ("projector_sets", [[]], "projector_sets[0]", "projector_set_empty"),
    ("states", {"psi": _E[0][:2]}, "states.psi", "state_wrong_size"),
    ("states", {"psi": []}, "states.psi", "state_empty"),
    ("propositions", {"p": 5}, "propositions.p", "proposition_not_an_object"),
    ("propositions", {"p": {"observable": "Sz", "interval": [0.0]}}, "propositions.p.interval", "interval_short"),
    ("propositions", {"p": {"observable": "Sz"}}, "propositions.p", "proposition_neither_form"),
]


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
        ("tolerance", {"tau": 1e-6}, "tolerance"),
        ("tolerances", {"tua": 1e-6}, "tolerances.tua"),
        ("propositions", _EXTRA_INTERVALS, "propositions.p.intervals"),
        *(case[:3] for case in _LOAD_ERRORS),
    ],
    ids=["states", "observables", "propositions", "bases", "projector_sets", "tau",
         "tau_at_bound", "tau_above_one",
         "tau_eig_nan", "interval_nan", "interval_inf", "state_nan", "state_huge_int", "observable_name_list",
         "unknown_top_key", "unknown_tolerance_key", "unknown_proposition_key",
         *(case[3] for case in _LOAD_ERRORS)],
)
def test_malformed_problem_file_is_domain_error(capsys, tmp_path, key, value, path):
    raw = json.loads(Path(SPIN2_PATH).read_text(encoding="utf-8"))
    raw.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = _run(capsys, "contexts", "--input", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [b'{"dim": 4\xff}', b"[" * 200_000, b'{"dim": ' + b"1" * 5000 + b"}", b"[]"],
    ids=["not_utf8", "nested_too_deep", "integer_too_long", "not_an_object"],
)
def test_unreadable_problem_file_is_domain_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    code, out, err = _run(capsys, "contexts", "--input", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}:")
    assert "Traceback" not in err


def test_error_line_names_a_deep_value_briefly(capsys, tmp_path):
    # A state entry of 900 nested lists: the message keeps the JSON path and
    # elides the value instead of printing its whole repr.
    raw = json.loads(Path(SPIN2_PATH).read_text(encoding="utf-8"))
    deep = [0.0, 0.0]
    for _ in range(900):
        deep = [deep]
    raw["states"] = {"psi": [deep, [0, 0], [0, 0], [0, 0]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = _run(capsys, "contexts", "--input", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: states.psi:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200


def test_state_loaded_within_tau_is_not_checked_again(capsys, tmp_path):
    # ||psi||^2 - 1 = 9.999995e-7 lies within tau = 1e-6, but the ray's
    # ||P^2 - P||_F = (||psi||^2 - 1) ||psi||^2 does not: the state is checked
    # once, as a unit vector, and every command that reads it succeeds.
    one, zero = [1.0, 0.0], [0.0, 0.0]
    problem = {
        "dim": 2,
        "bases": [[[one, zero], [zero, one]]],
        "states": {"psi": [[(1 + 9.999995e-7) ** 0.5, 0.0], zero]},
        "propositions": {"up": {"projector": [[one, zero], [zero, zero]]}},
        "tolerances": {"tau": 1e-6},
    }
    path = tmp_path / "long_state.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    for argv in (["pseudo-state", "--state", "psi"], ["truth", "--prop", "up", "--state", "psi"]):
        code, out, err = _run(capsys, *argv, "--input", str(path))
        assert (code, err) == (0, "")


def test_basis_over_the_context_cap_is_domain_error(capsys, tmp_path):
    # The standard basis of C^13 spans 2^13 - 14 = 8,178 contexts.
    eye = np.eye(13)
    problem = {"dim": 13, "bases": [[[[float(x), 0.0] for x in row] for row in eye]]}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(problem), encoding="utf-8")
    code, out, err = _run(capsys, "contexts", "--input", str(big))
    assert code == 1
    assert out == ""
    assert err.startswith("error: the seeds span 8,178 contexts on their own")
    assert "Traceback" not in err
