"""Problem files: named states, observables and propositions over seed bases.

The on-disk format is a single JSON object::

    {"dim": int,
     "bases": [[[ [re, im], ... ], ...], ...],
     "projector_sets": [[matrix, ...], ...],
     "states": {name: [[re, im], ...]},
     "observables": {name: matrix},
     "propositions": {name: {"observable": name, "interval": [lo, hi]}
                          | {"projector": matrix}},
     "tolerances": {"tau": num, "tau_eig": num}}

with complex matrices as row-major nested arrays of [re, im] pairs.  All
referenced names must resolve, every key must be one of the above, and every
invariant (orthonormal bases, unit states, self-adjoint observables,
projection propositions) is checked when the file is loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._json import brief_repr, dumps, finite_number, matrix_from_json, matrix_to_json, vector_from_json, vector_to_json
from .contexts import Context, ContextPoset, build_poset, context_from_basis, context_from_projectors
from .errors import ParseError, ValidationError
from .operators import Tolerances, is_orthonormal, is_projector, is_self_adjoint
from .valuation import proposition_projector


@dataclass(frozen=True)
class IntervalProposition:
    """Proposition "observable takes a value in the closed interval"."""

    observable: str
    interval: tuple[float, float]


@dataclass(frozen=True)
class ProjectorProposition:
    """Proposition given directly by a projection operator."""

    projector: np.ndarray


@dataclass(frozen=True, eq=False)
class Problem:
    dim: int
    bases: tuple[tuple[np.ndarray, ...], ...]
    projector_sets: tuple[tuple[np.ndarray, ...], ...]
    states: dict[str, np.ndarray]
    observables: dict[str, np.ndarray]
    propositions: dict[str, IntervalProposition | ProjectorProposition]
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return problem_to_dict(self) == problem_to_dict(other)


def _number(x, where: str) -> float:
    if not finite_number(x):
        raise ParseError(f"{where}: expected a finite number, got {brief_repr(x)}")
    return float(x)


def _container(raw: dict, key: str, kind: type):
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        raise ParseError(f"{key}: expected {'a list' if kind is list else 'an object'}")
    return value


def _known_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    # A misspelt key would otherwise be ignored and its default used silently.
    for key in obj:
        if key not in known:
            raise ParseError(f"{where}{key}: unknown key; expected one of {', '.join(known)}")


# An entry near the float limit overflows in the checks below, and the check
# then fails and refuses the file: the overflow warning would add nothing.
@np.errstate(over="ignore", invalid="ignore")
def problem_from_dict(raw: dict) -> Problem:
    """Validate a parsed problem dictionary; every invariant checked eagerly."""
    if not isinstance(raw, dict):
        raise ParseError("problem file must contain a JSON object")
    top = ("dim", "bases", "projector_sets", "states", "observables", "propositions", "tolerances")
    _known_keys(raw, top, "")
    dim = raw.get("dim")
    # Past the float range, 1/sqrt(dim) below would overflow.
    if not isinstance(dim, int) or not finite_number(dim) or dim < 2:
        raise ValidationError("dim: must be an integer >= 2 within the float range")
    tol_raw = _container(raw, "tolerances", dict)
    _known_keys(tol_raw, ("tau", "tau_eig"), "tolerances.")
    tolerances = Tolerances(**tol_raw)
    tau = tolerances.tau
    # sum_Q ||aQ||_F^2 = rank a >= 1 over <= dim projections Q: a touches some Q.
    if tau >= dim ** -0.5:
        raise ValidationError(f"tolerances.tau: must be below 1/sqrt(dim) = {dim ** -0.5:.6g}")

    def operator(obj, where: str, valid, fault: str) -> np.ndarray:
        mat = matrix_from_json(obj, where)
        if mat.shape != (dim, dim):
            raise ValidationError(f"{where}: dimension mismatch")
        if not valid(mat, tau):
            raise ValidationError(f"{where}: {fault}")
        return mat

    bases = []
    for b, basis_raw in enumerate(_container(raw, "bases", list)):
        if not isinstance(basis_raw, list):
            raise ParseError(f"bases[{b}]: expected a list of vectors")
        vectors = tuple(
            vector_from_json(v, f"bases[{b}][{i}]") for i, v in enumerate(basis_raw)
        )
        if len(vectors) != dim or any(v.shape != (dim,) for v in vectors):
            raise ValidationError(f"bases[{b}]: expected {dim} vectors of length {dim}")
        if not is_orthonormal(vectors, tau):
            raise ValidationError(f"bases[{b}]: basis not orthonormal")
        bases.append(vectors)

    projector_sets = []
    for s, set_raw in enumerate(_container(raw, "projector_sets", list)):
        if not isinstance(set_raw, list) or not set_raw:
            raise ParseError(f"projector_sets[{s}]: expected a nonempty list of matrices")
        projector_sets.append(tuple(
            operator(m, f"projector_sets[{s}][{i}]", is_projector, "not a projection")
            for i, m in enumerate(set_raw)
        ))

    states = {}
    for name, vec_raw in _container(raw, "states", dict).items():
        vec = vector_from_json(vec_raw, f"states.{name}")
        if vec.shape != (dim,):
            raise ValidationError(f"states.{name}: dimension mismatch")
        if not is_orthonormal([vec], tau):
            raise ValidationError(f"states.{name}: state not unit norm")
        states[name] = vec

    observables = {}
    for name, mat_raw in _container(raw, "observables", dict).items():
        observables[name] = operator(
            mat_raw, f"observables.{name}", is_self_adjoint, "observable not self-adjoint"
        )

    propositions: dict[str, IntervalProposition | ProjectorProposition] = {}
    for name, prop_raw in _container(raw, "propositions", dict).items():
        if not isinstance(prop_raw, dict):
            raise ParseError(f"propositions.{name}: expected an object")
        _known_keys(prop_raw, ("projector", "observable", "interval"), f"propositions.{name}.")
        if "projector" in prop_raw:
            where = f"propositions.{name}.projector"
            mat = operator(prop_raw["projector"], where, is_projector, "not a projection")
            propositions[name] = ProjectorProposition(mat)
        elif "observable" in prop_raw and "interval" in prop_raw:
            obs = prop_raw["observable"]
            if not isinstance(obs, str) or obs not in observables:
                raise ValidationError(f"propositions.{name}: unknown observable {obs!r}")
            interval = prop_raw["interval"]
            where = f"propositions.{name}.interval"
            if not isinstance(interval, list) or len(interval) != 2:
                raise ParseError(f"{where}: expected [lo, hi]")
            lo, hi = (_number(x, f"{where}[{i}]") for i, x in enumerate(interval))
            if lo > hi:
                raise ValidationError(f"propositions.{name}: interval lo > hi")
            propositions[name] = IntervalProposition(obs, (lo, hi))
        else:
            raise ParseError(
                f"propositions.{name}: expected a 'projector' or an "
                f"'observable'/'interval' pair"
            )

    if not bases and not projector_sets:
        raise ValidationError("bases: problem needs at least one basis or projector set")
    return Problem(
        dim=dim,
        bases=tuple(bases),
        projector_sets=tuple(projector_sets),
        states=states,
        observables=observables,
        propositions=propositions,
        tolerances=tolerances,
    )


def load_problem(path) -> Problem:
    """Read and validate a problem file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, nested too deeply, or an integer too long to convert.
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: problem file must contain a JSON object")
    return problem_from_dict(raw)


def problem_to_dict(problem: Problem) -> dict:
    """Inverse of :func:`problem_from_dict`; floats are kept exact."""
    return {
        "dim": problem.dim,
        "bases": [[vector_to_json(v) for v in basis] for basis in problem.bases],
        "projector_sets": [
            [matrix_to_json(p) for p in pset] for pset in problem.projector_sets
        ],
        "states": {name: vector_to_json(v) for name, v in sorted(problem.states.items())},
        "observables": {
            name: matrix_to_json(m) for name, m in sorted(problem.observables.items())
        },
        "propositions": {
            name: (
                {"projector": matrix_to_json(p.projector)}
                if isinstance(p, ProjectorProposition)
                else {"observable": p.observable, "interval": [p.interval[0], p.interval[1]]}
            )
            for name, p in sorted(problem.propositions.items())
        },
        "tolerances": {"tau": problem.tolerances.tau, "tau_eig": problem.tolerances.tau_eig},
    }


def serialize_problem(problem: Problem) -> str:
    return dumps(problem_to_dict(problem))


def problem_seed_contexts(problem: Problem) -> list[Context]:
    """Seed contexts: one maximal context per basis, one generated context
    per projector set."""
    tau = problem.tolerances.tau
    seeds = [context_from_basis(basis, tau) for basis in problem.bases]
    seeds += [context_from_projectors(pset, tau) for pset in problem.projector_sets]
    return seeds


def problem_poset(problem: Problem) -> ContextPoset:
    return build_poset(problem_seed_contexts(problem), problem.tolerances.tau, problem.tolerances.tau_eig)


def resolve_proposition(problem: Problem, name: str) -> np.ndarray:
    """Projection operator of a named proposition."""
    if name not in problem.propositions:
        raise ValidationError(f"unknown proposition {name!r}")
    prop = problem.propositions[name]
    if isinstance(prop, ProjectorProposition):
        return prop.projector
    observable = problem.observables[prop.observable]
    return proposition_projector(
        observable, prop.interval, problem.tolerances.tau, problem.tolerances.tau_eig
    )
