"""The three workloads: their set-up, their fixed op lists and each op's check.

An op is one closed-loop unit of work: the runner times ``op.run`` and then,
outside the timed region, passes the answer to ``op.check``.  Every call into
the library goes through ``tr.call(name, tag, fn, *args)`` so that a traced
run records one span per call; untraced runs call straight through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from toposqt.cli import render_json, run_command
from toposqt.contexts import build_poset
from toposqt.daseinisation import daseinise_proposition, inner_daseinise_projection
from toposqt.logic import (
    check_global_element,
    enumerate_sieves,
    global_element_connective,
    principal_sieve,
    sieve_connective,
    subobject_connective,
)
from toposqt.presheaf import gelfand_spectrum, is_clopen_subobject
from toposqt.problems import load_problem, problem_seed_contexts
from toposqt.valuation import global_sections, pseudo_state, quantity_value_arrow, truth_value

import checks
import inputs

WORKLOADS = ("build", "query", "heyting")

#: Sections the search must find on the shipped posets.
EXPECTED_SECTIONS = {"ks18": 0, "spin2": 4}

#: Seeded inputs of each kind per poset in the query and heyting workloads.
INPUTS_PER_POSET = 4

#: Sieve triples sampled per context by a heyting op.
TRIPLES_PER_CONTEXT = 48

#: ks18 contexts covered by heyting ops: all maximal ones, plus this many
#: seeded contexts with 3 and with 2 atoms.
KS18_HEYTING_PICKS = {3: 6, 2: 4}

CONNECTIVES = ("and", "or", "implies", "not")


@dataclass
class Op:
    kind: str  # op class; one pass runs each listed op once
    tag: str  # poset or problem class the op works on
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]


@dataclass
class Shipped:
    """A shipped problem loaded and built into its poset."""

    name: str
    problem: Any
    poset: Any
    bases: list

    @property
    def tau(self) -> float:
        return self.problem.tolerances.tau

    @property
    def tau_eig(self) -> float:
        return self.problem.tolerances.tau_eig


def verified_once(check, key):
    """``check``, except that an answer whose ``key`` equals that of an answer
    that already passed in full passes again without being rechecked.  Keys
    are built from plain values, not from the library's own equality."""
    passed = []

    def cached(answer, tr):
        k = key(answer)
        if passed and passed[0] == k:
            return []
        errors = check(answer, tr)
        if not errors:
            passed[:] = [k]
        return errors

    return cached


def sieve_key(sieve) -> tuple:
    return sieve.base, frozenset(sieve.members)


def load_shipped(tr, data_dir: Path, name: str) -> Shipped:
    path = data_dir / f"{name}.json"
    problem = tr.call("problems.load_problem", name, load_problem, path)
    seeds = tr.call("contexts.problem_seed_contexts", name, problem_seed_contexts, problem)
    poset = tr.call("contexts.build_poset", name, build_poset, seeds, problem.tolerances.tau)
    return Shipped(name, problem, poset, inputs.read_bases(path))


class Workload:
    """Set-up state, the op list and exact per-pass counters of one workload."""

    name = ""

    def __init__(self, seed: int, root: Path, small: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.data_dir = root / "src" / "toposqt" / "data"
        self.small = small
        # Exact counters read off the library's results, keyed by op or poset,
        # so that one pass's totals are the sum over the keys.
        self.counters: dict[Any, dict[str, int]] = {}

    def setup(self, tr) -> None:
        raise NotImplementedError

    def prepare_checks(self, tr) -> list[str]:
        """Build the independent models the checks need; returns poset-level errors."""
        return []

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def poset_names(self) -> tuple[str, ...]:
        return ("spin2",) if self.small else ("ks18", "spin2")

    def pass_totals(self) -> dict[str, int]:
        """Exact counters summed over one pass of the op list."""
        totals: dict[str, int] = {}
        for counters in self.counters.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


# -- build ---------------------------------------------------------------------


class Build(Workload):
    """Poset construction: problem file -> ``contexts`` report."""

    name = "build"

    def setup(self, tr) -> None:
        """Generates the problem texts.  Writing them is left to
        ``prepare_checks``, out of the set-up time: with the writes, the
        set-up time moved by 15% between runs of the same code."""
        out_dir = self.root / ".bench_out" / "inputs" / f"seed{self.seed}"
        self.cases, self.texts = tr.call(
            "bench.make_inputs", "build", inputs.make_build_inputs,
            self.seed, out_dir, self.data_dir, self.small,
        )

    def prepare_checks(self, tr) -> list[str]:
        inputs.write_files(self.texts)
        self.expected = {c.name: checks.expected_counts(inputs.read_bases(c.path)) for c in self.cases}
        return []

    def ops(self, timed: bool = True) -> list[Op]:
        """The timed op list, or (``timed=False``) the ops only traced runs make."""
        return [
            Op(f"build.{case.name}", case.tag, self._runner(case), self._checker(case))
            for case in self.cases
            if case.timed == timed
        ]

    @staticmethod
    def _runner(case):
        def run(tr):
            problem = tr.call("problems.load_problem", case.tag, load_problem, case.path)
            report = tr.call("cli.run_command", "contexts", run_command, "contexts", problem, {})
            return problem, tr.call("cli.render_json", case.tag, render_json, report)

        return run

    def _checker(self, case):
        def check_report(answer, tr):
            text = answer[1]
            report = json.loads(text)
            expected = self.expected[case.name]
            errors = checks.check_contexts_report(report, expected)
            digest = checks.CONTEXTS_REPORT_SHA256.get(case.name)
            if digest is not None and checks.report_digest(text) != digest:
                errors.append(f"{case.name} contexts report is not byte-identical to the committed one")
            if case.timed:
                self.counters[case.name] = {
                    "contexts": report["count"],
                    "inclusions": len(report["leq"]),
                    "atoms": sum(e["atom_count"] for e in report["contexts"]),
                }
            return errors

        report_once = verified_once(check_report, lambda answer: answer[1])

        def check(answer, tr):
            errors = report_once(answer, tr)
            if tr.enabled:
                # Beside run_command, so the contexts share of an op shows.
                problem = answer[0]
                seeds = tr.call("contexts.problem_seed_contexts", case.tag, problem_seed_contexts, problem)
                poset = tr.call("contexts.build_poset", case.tag, build_poset, seeds, problem.tolerances.tau)
                errors += checks.check_poset(poset, checks.DenseModel.of_poset(poset), self.expected[case.name])
            return errors

        return check


# -- shared by query and heyting ----------------------------------------------


class PosetWorkload(Workload):
    """Reads posets built during set-up."""

    def setup(self, tr) -> None:
        self.shipped = {name: load_shipped(tr, self.data_dir, name) for name in self.poset_names()}
        self.inputs = {
            name: inputs.poset_inputs(self.seed, name, s.bases, INPUTS_PER_POSET)
            for name, s in self.shipped.items()
        }

    def prepare_checks(self, tr) -> list[str]:
        self.models = {}
        errors = []
        for name, s in self.shipped.items():
            model = checks.DenseModel.of_poset(s.poset)
            self.models[name] = model
            errors += checks.check_poset(s.poset, model, checks.expected_counts(s.bases))
            self.counters[name] = checks.poset_counts(s.poset)
        return errors


# -- query ---------------------------------------------------------------------


class Query(PosetWorkload):
    """Daseinisation, truth values, pseudo-states, interval values, sections."""

    name = "query"

    def prepare_checks(self, tr) -> list[str]:
        errors = super().prepare_checks(tr)
        self.bounds = {
            (name, k): {cid: checks.spectral_bounds(A, atoms) for cid, atoms in self.models[name].atoms.items()}
            for name, x in self.inputs.items()
            for k, A in enumerate(x.observables)
        }
        return errors

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        for name, s in self.shipped.items():
            x = self.inputs[name]
            for k in range(INPUTS_PER_POSET):
                ops.append(self._truth(s, "aligned", x.aligned_projectors[k], x.aligned_states[k]))
                ops.append(self._truth(s, "generic", x.generic_projectors[k], x.generic_states[k]))
                psi = (x.aligned_states if k % 2 == 0 else x.generic_states)[k]
                ops.append(self._pseudo(s, psi))
                P = (x.aligned_projectors if k % 2 == 0 else x.generic_projectors)[k]
                ops.append(self._dasein(s, P))
                if k < 2:
                    ops.append(self._inner_sweep(s, P))
            for i, context in enumerate(s.poset):
                k = i % len(x.observables)
                ops.append(self._value_sweep(s, context, k))
                if context.n_atoms == s.poset.dim:
                    # Maximal contexts get a second sweep with an observable
                    # of the other kind (aligned or generic).  Their sweeps
                    # are the costliest ops, and with 20 of them per pass the
                    # p90 tail falls inside that group, not at its edge.
                    ops.append(self._value_sweep(s, context, k ^ 1))
            ops.append(self._sections(s))
        order = np.random.default_rng([self.seed, 3]).permutation(len(ops))
        return [ops[i] for i in order]

    def _truth(self, s: Shipped, kind: str, P, psi) -> Op:
        def run(tr):
            return tr.call("valuation.truth_value", f"{s.name}.{kind}", truth_value, s.poset, P, psi, s.tau)

        def check(element, tr):
            errors = checks.check_truth(element, P, psi, self.models[s.name])
            if not tr.call("logic.check_global_element", s.name, check_global_element, s.poset, element):
                errors.append("truth value fails the global-element matching condition")
            return errors

        return Op(f"query.truth.{kind}", s.name, run, check)

    def _subobject_check(self, s: Shipped, P, result, tr) -> list[str]:
        errors = checks.check_outer(P, result.per_context_projector, result.subobject.selection, self.models[s.name])
        if not tr.call("presheaf.is_clopen_subobject", s.name, is_clopen_subobject, s.poset, result.subobject):
            errors.append("subobject is not clopen")
        return errors

    def _pseudo(self, s: Shipped, psi) -> Op:
        def run(tr):
            return tr.call("valuation.pseudo_state", s.name, pseudo_state, s.poset, psi, s.tau)

        def check(result, tr):
            return self._subobject_check(s, np.outer(psi, psi.conj()), result, tr)

        return Op("query.pseudo_state", s.name, run, check)

    def _dasein(self, s: Shipped, P) -> Op:
        def run(tr):
            return tr.call("daseinisation.daseinise_proposition", s.name, daseinise_proposition, s.poset, P, s.tau)

        def check(result, tr):
            return self._subobject_check(s, P, result, tr)

        return Op("query.daseinise", s.name, run, check)

    def _inner_sweep(self, s: Shipped, P) -> Op:
        def run(tr):
            return {
                c.id: tr.call("daseinisation.inner_daseinise_projection", s.name, inner_daseinise_projection, P, c, s.tau)
                for c in s.poset
            }

        def check(result, tr):
            return checks.check_inner(P, result, self.models[s.name])

        return Op("query.inner_sweep", s.name, run, check)

    def _value_sweep(self, s: Shipped, context, k: int) -> Op:
        A = self.inputs[s.name].observables[k]

        def run(tr):
            return [
                (ch, tr.call("valuation.quantity_value_arrow", s.name, quantity_value_arrow, s.poset, A, context, ch, s.tau, s.tau_eig))
                for ch in tr.call("presheaf.gelfand_spectrum", s.name, gelfand_spectrum, context)
            ]

        def check(pairs, tr):
            self.counters[("value", s.name, context.id, k)] = {"characters_evaluated": len(pairs)}
            if sorted(ch.atom_index for ch, _ in pairs) != list(range(context.n_atoms)):
                return ["value sweep skipped characters"]
            bounds = self.bounds[(s.name, k)]
            return [
                e
                for ch, pair in pairs
                for e in checks.check_interval(pair, context.id, ch.atom_index, bounds, self.models[s.name])
            ]

        return Op("query.value_sweep", s.name, run, check)

    def _sections(self, s: Shipped) -> Op:
        def run(tr):
            return tr.call("valuation.global_sections", s.name, global_sections, s.poset)

        def check(found, tr):
            self.counters[("sections", s.name)] = {"sections_found": len(found)}
            return checks.check_sections(found, EXPECTED_SECTIONS[s.name], self.models[s.name])

        return Op("query.sections", s.name, run, check)


# -- heyting -------------------------------------------------------------------


class Heyting(PosetWorkload):
    """Sieve enumeration, Heyting laws and connectives."""

    name = "heyting"

    def setup(self, tr) -> None:
        super().setup(tr)
        rng = np.random.default_rng([self.seed, 4])
        self.picks: dict[str, list] = {}
        self.dasein: dict[str, list] = {}
        self.truth: dict[str, list] = {}
        for name, s in self.shipped.items():
            contexts = list(s.poset)
            if name == "ks18":
                picked = [c for c in contexts if c.n_atoms == 4]
                for atoms, count in KS18_HEYTING_PICKS.items():
                    pool = [c for c in contexts if c.n_atoms == atoms]
                    picked += [pool[i] for i in sorted(rng.choice(len(pool), size=count, replace=False))]
            else:
                picked = contexts
            self.picks[name] = [(c, rng.random((TRIPLES_PER_CONTEXT, 3))) for c in picked]
            x = self.inputs[name]
            props = [x.aligned_projectors[0], x.generic_projectors[1], x.aligned_projectors[2], x.generic_projectors[3]]
            self.dasein[name] = [
                tr.call("daseinisation.daseinise_proposition", name, daseinise_proposition, s.poset, P, s.tau)
                for P in props
            ]
            states = [x.aligned_states[0], x.aligned_states[1], x.generic_states[2], x.aligned_states[3]]
            self.truth[name] = [
                tr.call("valuation.truth_value", f"{name}.setup", truth_value, s.poset, P, psi, s.tau)
                for P, psi in zip(props, states)
            ]

    def prepare_checks(self, tr) -> list[str]:
        errors = super().prepare_checks(tr)
        self.oracles = {
            name: {cid: checks.SieveOracle(cid, self.models[name]) for cid in self.models[name].ids}
            for name in self.shipped
        }
        return errors

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        for name, s in self.shipped.items():
            ops += [self._context(s, c, u) for c, u in self.picks[name]]
            for i, j in ((0, 1), (2, 3)):
                for kind in CONNECTIVES:
                    ops.append(self._subobject(s, kind, i, j))
                    ops.append(self._element(s, kind, i, j))
            ops.append(self._down_ids(s))
        order = np.random.default_rng([self.seed, 5]).permutation(len(ops))
        return [ops[i] for i in order]

    def _context(self, s: Shipped, context, u) -> Op:
        where = f"{s.name}.a{context.n_atoms}"

        def connective(tr, kind, a, b=None):
            return tr.call("logic.sieve_connective", f"{kind}.{where}", sieve_connective, s.poset, kind, a, b)

        def run(tr):
            sieves = tr.call("logic.enumerate_sieves", where, enumerate_sieves, s.poset, context)
            top = tr.call("logic.principal_sieve", where, principal_sieve, s.poset, context.id)
            em_failures = violations = 0
            for a in sieves:
                negation = connective(tr, "not", a)
                if connective(tr, "and", a, negation).members:
                    violations += 1
                if connective(tr, "or", a, negation) != top:
                    em_failures += 1
            implications = []
            for i, j, k in (u * len(sieves)).astype(int).tolist():
                a, b, c = sieves[i], sieves[j], sieves[k]
                conj = connective(tr, "and", a, b)
                lhs = connective(tr, "and", a, connective(tr, "or", b, c))
                rhs = connective(tr, "or", conj, connective(tr, "and", a, c))
                if lhs != rhs:
                    violations += 1
                implication = connective(tr, "implies", b, c)
                if (conj.members <= c.members) != (a.members <= implication.members):
                    violations += 1
                implications.append((b.members, c.members, implication.members))
            return sieves, em_failures, violations, implications

        def check(answer, tr):
            sieves, em_failures, violations, implications = answer
            self.counters[("context", s.name, context.id)] = {
                "sieves": len(sieves),
                "triples_checked": len(implications),
                "law_violations": violations,
                "excluded_middle_failures": em_failures,
            }
            return checks.check_sieve_op(answer, self.oracles[s.name][context.id])

        def key(answer):
            sieves, em_failures, violations, implications = answer
            return tuple(map(sieve_key, sieves)), em_failures, violations, tuple(implications)

        return Op("heyting.context", where, run, verified_once(check, key))

    def _subobject(self, s: Shipped, kind: str, i: int, j: int) -> Op:
        first = self.dasein[s.name][i].subobject
        second = None if kind == "not" else self.dasein[s.name][j].subobject

        def run(tr):
            return tr.call("logic.subobject_connective", f"{kind}.{s.name}", subobject_connective, s.poset, kind, first, second)

        def check(result, tr):
            errors = checks.check_subobject_connective(kind, first, second, result, self.models[s.name])
            if not tr.call("presheaf.is_clopen_subobject", s.name, is_clopen_subobject, s.poset, result):
                errors.append(f"subobject {kind} is not clopen")
            return errors

        def key(result):
            return {cid: frozenset(chosen) for cid, chosen in result.selection.items()}

        return Op("heyting.subobject_connective", s.name, run, verified_once(check, key))

    def _element(self, s: Shipped, kind: str, i: int, j: int) -> Op:
        first = self.truth[s.name][i]
        second = None if kind == "not" else self.truth[s.name][j]

        def run(tr):
            return tr.call("logic.global_element_connective", f"{kind}.{s.name}", global_element_connective, s.poset, kind, first, second)

        def check(result, tr):
            errors = checks.check_element_connective(kind, first, second, result, self.oracles[s.name])
            if not tr.call("logic.check_global_element", s.name, check_global_element, s.poset, result):
                errors.append(f"global element {kind} fails the matching condition")
            return errors

        def key(result):
            return {cid: sieve_key(sieve) for cid, sieve in result.sieves.items()}

        return Op("heyting.element_connective", s.name, run, verified_once(check, key))

    def _down_ids(self, s: Shipped) -> Op:
        def run(tr):
            return {cid: tr.call("contexts.down_ids", s.name, s.poset.down_ids, cid) for cid in s.poset.ids}

        def check(result, tr):
            model = self.models[s.name]
            return [] if {k: frozenset(v) for k, v in result.items()} == model.down else ["down-sets differ from dense inclusion"]

        return Op("heyting.down_ids", s.name, run, check)


def make(name: str, seed: int, root: Path, small: bool = False) -> Workload:
    return {"build": Build, "query": Query, "heyting": Heyting}[name](seed, root, small)
