"""Output checks that do not depend on the seed or trust the library.

Each check recomputes what it needs from dense matrices or from a
combinatorial model of the problem, so a wrong answer from the library is
counted as a failed op rather than reproduced.  Checks return a list of
problems found; an empty list means the op passed.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np

#: Tolerance for the dense checks (reports round matrices to 12 digits).
TOL = 1e-7

#: sha256 of ``render_json(run_command("contexts", ...))`` for the shipped
#: problems, taken from the code this benchmark was written against.  The
#: ``contexts`` report of these files must stay byte-identical.
CONTEXTS_REPORT_SHA256 = {
    "spin2": "40ed8f513f762d549a193eb6234cbbb341c7acdfc4b22cafbc66ea68248ced9f",
    "ks18": "22710675d3ea9d914694e5265af177e85a914638511bd9c0ca299a4cb6a3b018",
}


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- combinatorial model of a problem's poset --------------------------------


def ray_labels(bases) -> list[frozenset[int]]:
    """Label each basis ray; rays equal up to phase share a label."""
    rays: list[np.ndarray] = []
    labelled = []
    for basis in bases:
        labels = []
        for v in basis:
            v = v / np.linalg.norm(v)
            for k, w in enumerate(rays):
                if abs(abs(np.vdot(w, v)) - 1.0) < TOL:
                    labels.append(k)
                    break
            else:
                labels.append(len(rays))
                rays.append(v)
        labelled.append(frozenset(labels))
    return labelled


def expected_counts(bases) -> dict[str, int]:
    """Contexts, strict inclusions and atoms of the poset the bases generate.

    Each context is a coarsening of one basis: a set S of its rays kept as
    rank-one atoms plus the remainder, or the whole basis.  Coarsenings of
    different bases coincide exactly when they keep the same rays, meets of
    bases are coarsenings again, and V_S <= V_T iff S is a subset of T.  This
    holds for rays in general position apart from the shared ones, which is
    the case for the generated problems and for the shipped ones.
    """
    dim = len(bases[0])
    labels = ray_labels(bases)
    kept: set[frozenset[int]] = set()
    for basis in labels:
        for r in range(1, dim - 1):
            kept.update(frozenset(s) for s in combinations(sorted(basis), r))
    contexts = len(kept) + len(labels)
    inclusions = sum(1 for s in kept for t in kept if s < t)
    inclusions += sum(1 for s in kept for basis in labels if s <= basis)
    atoms = sum(len(s) + 1 for s in kept) + dim * len(labels)
    return {"contexts": contexts, "inclusions": inclusions, "atoms": atoms}


# -- dense helpers ------------------------------------------------------------


def dominated_by(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """M[i, j] is True iff fine atom i <= coarse atom j (b a = a)."""
    prod = np.einsum("jxy,iyz->ijxz", coarse, fine)
    return np.linalg.norm(prod - fine[:, None], axis=(2, 3)) <= TOL


def dense_restriction(fine: np.ndarray, coarse: np.ndarray) -> tuple[int, ...] | None:
    """Index of the unique coarse atom above each fine atom, or None."""
    hits = dominated_by(fine, coarse)
    if not np.all(hits.sum(axis=1) == 1):
        return None
    return tuple(int(j) for j in hits.argmax(axis=1))


class DenseModel:
    """Inclusions and restriction tables recomputed from the atom matrices.

    ``atoms`` maps a context id to its stacked atoms (k x d x d).  Sub <= sup
    iff every atom of sup lies under exactly one atom of sub and those atoms
    sum to the identity, which the atoms of a context do.
    """

    def __init__(self, atoms: dict[str, np.ndarray]) -> None:
        self.atoms = atoms
        self.ids = list(atoms)
        self.table: dict[tuple[str, str], tuple[int, ...]] = {}
        self.down: dict[str, frozenset[str]] = {}
        for sup in self.ids:
            below = []
            for sub in self.ids:
                if sub == sup:
                    table = tuple(range(len(atoms[sup])))
                elif len(atoms[sub]) >= len(atoms[sup]):
                    continue
                else:
                    table = dense_restriction(atoms[sup], atoms[sub])
                    if table is None:
                        continue
                self.table[(sup, sub)] = table
                below.append(sub)
            self.down[sup] = frozenset(below)

    @classmethod
    def of_poset(cls, poset) -> "DenseModel":
        return cls({c.id: np.array(c.atoms) for c in poset})

    def restriction_errors(self, tables: dict[tuple[str, str], tuple[int, ...]]) -> list[str]:
        """Compare restriction tables against dense domination."""
        errors = []
        for (sup, sub), table in tables.items():
            fine, coarse = self.atoms[sup], self.atoms[sub]
            if len(table) != len(fine):
                errors.append(f"table {sup}->{sub} has the wrong length")
                continue
            hits = dominated_by(fine, coarse)
            if not all(hits[i, j] for i, j in enumerate(table)):
                errors.append(f"table {sup}->{sub} maps an atom below a coarse atom that does not dominate it")
        if set(tables) != {k for k in self.table if k[0] != k[1]}:
            errors.append("inclusions differ from dense domination")
        return errors


def poset_tables(poset) -> dict[tuple[str, str], tuple[int, ...]]:
    """The library's restriction tables for every strict inclusion."""
    return {
        (sup, sub): poset.restriction_indices(sup, sub)
        for sup in poset.ids
        for sub in poset.down_ids(sup)
        if sub != sup
    }


def check_poset(poset, model: DenseModel, expected: dict[str, int]) -> list[str]:
    """Library poset against dense inclusions, restriction tables and counts."""
    errors = model.restriction_errors(poset_tables(poset))
    for cid in poset.ids:
        if frozenset(poset.down_ids(cid)) != model.down[cid]:
            errors.append(f"down-set of {cid} differs from dense inclusion")
    counts = poset_counts(poset)
    if counts != expected:
        errors.append(f"counts {counts} != expected {expected}")
    return errors


def poset_counts(poset) -> dict[str, int]:
    return {
        "contexts": len(poset),
        "inclusions": sum(len(poset.down_ids(c)) - 1 for c in poset.ids),
        "atoms": sum(c.n_atoms for c in poset),
    }


# -- build: the contexts report -----------------------------------------------


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def check_contexts_report(report: dict, expected: dict[str, int]) -> list[str]:
    """A ``contexts`` report against the combinatorial model and dense algebra."""
    errors = []
    entries = report["contexts"]
    atoms = {e["id"]: np.array([_matrix(a) for a in e["atoms"]]) for e in entries}
    counts = {
        "contexts": report["count"],
        "inclusions": len(report["leq"]),
        "atoms": sum(e["atom_count"] for e in entries),
    }
    if counts != expected or len(atoms) != report["count"]:
        errors.append(f"counts {counts} != expected {expected}")
    dim = report["dim"]
    for cid, a in atoms.items():
        if np.linalg.norm(a.sum(axis=0) - np.eye(dim)) > TOL:
            errors.append(f"atoms of {cid} do not sum to the identity")
    for sub, sup in report["leq"]:
        if sub not in atoms or sup not in atoms:
            errors.append(f"inclusion {sub} <= {sup} names an unknown context")
        elif dense_restriction(atoms[sup], atoms[sub]) is None:
            errors.append(f"{sub} <= {sup} but an atom of {sup} has no unique dominating atom")
    return errors


# -- query ---------------------------------------------------------------------


def outer_atoms(P: np.ndarray, atoms: np.ndarray) -> frozenset[int]:
    """Atoms a with a P != 0: their sum is the smallest projection above P."""
    return frozenset(np.flatnonzero(np.linalg.norm(atoms @ P, axis=(1, 2)) > TOL).tolist())


def inner_atoms(P: np.ndarray, atoms: np.ndarray) -> frozenset[int]:
    """Atoms a with a P = a: their sum is the largest projection below P."""
    return frozenset(np.flatnonzero(np.linalg.norm(atoms @ P - atoms, axis=(1, 2)) <= TOL).tolist())


def check_truth(element, P: np.ndarray, psi: np.ndarray, model: DenseModel) -> list[str]:
    """The sieve at each context holds exactly the subcontexts where the
    outer approximation of P has expectation one in psi."""
    if set(element.sieves) != set(model.ids):
        return ["truth value does not cover the poset"]
    certain = set()
    for cid, atoms in model.atoms.items():
        chosen = sorted(outer_atoms(P, atoms))
        if np.real(np.vdot(psi, atoms[chosen].sum(axis=0) @ psi)) > 1.0 - TOL:
            certain.add(cid)
    return [
        f"sieve at {cid} differs from the dense truth value"
        for cid, sieve in element.sieves.items()
        if sieve.base != cid or sieve.members != model.down[cid] & certain
    ]


def selection_errors(selection: dict[str, frozenset[int]], model: DenseModel) -> list[str]:
    """A clopen subobject maps its selection into the selection below."""
    errors = []
    if set(selection) != set(model.ids):
        return ["subobject does not cover the poset"]
    for (sup, sub), table in model.table.items():
        if any(table[i] not in selection[sub] for i in selection[sup]):
            errors.append(f"selection at {sup} does not restrict into {sub}")
    return errors


def check_approximations(per_context: dict, oracle: dict[str, frozenset[int]], model: DenseModel, what: str) -> list[str]:
    """Each projector is the sum of exactly the atoms the dense oracle picks."""
    if set(per_context) != set(model.ids):
        return [f"{what} approximations do not cover the poset"]
    return [
        f"{what} approximation at {cid} differs from the dense one"
        for cid, Q in per_context.items()
        if np.linalg.norm(model.atoms[cid][sorted(oracle[cid])].sum(axis=0) - Q) > TOL
    ]


def check_outer(P: np.ndarray, per_context: dict, selection: dict, model: DenseModel) -> list[str]:
    """Outer approximations and their character sets against the dense ones."""
    oracle = {cid: outer_atoms(P, atoms) for cid, atoms in model.atoms.items()}
    errors = check_approximations(per_context, oracle, model, "outer")
    if selection != oracle:
        errors.append("selected characters differ from the atoms under the outer approximation")
    return errors


def check_inner(P: np.ndarray, per_context: dict, model: DenseModel) -> list[str]:
    oracle = {cid: inner_atoms(P, atoms) for cid, atoms in model.atoms.items()}
    return check_approximations(per_context, oracle, model, "inner")


def spectral_bounds(A: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Per atom a, the least and greatest eigenvalue of A whose eigenvectors
    a does not annihilate.  These are the values of the inner and outer
    approximations of A (in the spectral order) at the character of a."""
    values, vectors = np.linalg.eigh(A)
    touched = np.linalg.norm(atoms @ vectors, axis=1) > TOL  # atom x eigenvector
    return np.array([[values[t].min(), values[t].max()] for t in touched])


def check_interval(pair, base: str, atom: int, bounds: dict[str, np.ndarray], model: DenseModel) -> list[str]:
    """mu and nu at every subcontext equal the spectral bounds of the atom
    the character restricts to there."""
    down = model.down[base]
    if pair.base != base or set(pair.mu) != down or set(pair.nu) != down:
        return [f"interval at {base} does not cover its down-set"]
    errors = []
    for w in down:
        lo, hi = bounds[w][model.table[(base, w)][atom]]
        if abs(pair.mu[w] - lo) > TOL or abs(pair.nu[w] - hi) > TOL:
            errors.append(f"interval at {w} differs from the dense spectral bounds")
    return errors


def check_sections(sections, expected: int, model: DenseModel) -> list[str]:
    errors = [] if len(sections) == expected else [f"{len(sections)} sections, expected {expected}"]
    for s in sections:
        if any(
            s.assignment[sub] != table[s.assignment[sup]]
            for (sup, sub), table in model.table.items()
        ):
            errors.append("a section is not consistent under restriction")
    return errors


# -- heyting: a bitmask oracle for the sieve algebra ----------------------------


class SieveOracle:
    """Sieves on one context as bitmasks over its dense down-set."""

    def __init__(self, base: str, model: DenseModel) -> None:
        elements = sorted(model.down[base])
        self.index = {cid: k for k, cid in enumerate(elements)}
        self.below = [self.mask(model.down[cid]) for cid in elements]
        n = len(elements)
        self.top = (1 << n) - 1
        self.sieves = [
            m for m in range(1 << n) if all(self.below[k] & ~m == 0 for k in range(n) if m >> k & 1)
        ]

    def mask(self, members) -> int:
        return sum(1 << self.index[m] for m in members)

    def implies(self, a: int, b: int) -> int:
        return sum(1 << k for k, down in enumerate(self.below) if down & a & ~b == 0)

    def excluded_middle_failures(self) -> int:
        return sum(1 for s in self.sieves if s | self.implies(s, 0) != self.top)


def check_sieve_op(answer, oracle: SieveOracle) -> list[str]:
    """Library sieves, excluded middle and laws against the bitmask oracle."""
    sieves, em_failures, violations, implications = answer
    errors = []
    masks = [oracle.mask(s.members) for s in sieves]
    if sorted(masks) != oracle.sieves or len(set(masks)) != len(masks):
        errors.append("enumerated sieves differ from the down-closed subsets")
    if em_failures != oracle.excluded_middle_failures():
        errors.append(f"{em_failures} excluded-middle failures, oracle has {oracle.excluded_middle_failures()}")
    if violations:
        errors.append(f"{violations} Heyting-law violations")
    for b, c, result in implications:
        if oracle.mask(result) != oracle.implies(oracle.mask(b), oracle.mask(c)):
            errors.append("implication differs from the oracle")
            break
    return errors


def check_subobject_connective(kind, s1, s2, result, model: DenseModel) -> list[str]:
    """Contextwise and/or; implication keeps characters whose restrictions
    into s1 all land in s2 (``not`` is implication into the empty subobject)."""
    second = s2.selection if s2 is not None else {cid: frozenset() for cid in model.ids}
    if kind == "and":
        expected = {cid: s1.at(cid) & second[cid] for cid in model.ids}
    elif kind == "or":
        expected = {cid: s1.at(cid) | second[cid] for cid in model.ids}
    else:
        expected = {
            sup: frozenset(
                i
                for i in range(len(model.atoms[sup]))
                if all(
                    model.table[(sup, sub)][i] not in s1.at(sub)
                    or model.table[(sup, sub)][i] in second[sub]
                    for sub in model.down[sup]
                )
            )
            for sup in model.ids
        }
    errors = selection_errors(result.selection, model)
    if result.selection != expected:
        errors.append(f"subobject {kind} differs from the oracle")
    return errors


def check_element_connective(kind, g1, g2, result, oracles: dict[str, SieveOracle]) -> list[str]:
    for cid, oracle in oracles.items():
        a = oracle.mask(g1.at(cid).members)
        b = oracle.mask(g2.at(cid).members) if g2 is not None else 0
        want = {"and": a & b, "or": a | b}.get(kind)
        if want is None:
            want = oracle.implies(a, b)
        if oracle.mask(result.at(cid).members) != want:
            return [f"global element {kind} differs from the oracle at {cid}"]
    return []
