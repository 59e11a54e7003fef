"""Command-line interface: problem ingestion, dispatch, deterministic reports.

Every command reads a problem file, builds its context poset and prints one
JSON document (or a human-readable table with ``--format table``).  Output
ordering is canonical throughout, so identical inputs produce byte-identical
reports.  Exit status: 0 on success, 1 on a domain error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Mapping

from ._json import dump, dumps, integer, matrix_to_json, round_real, vector_to_json
from .contexts import ContextPoset
from .daseinisation import DaseinisedProposition, daseinise_proposition, inner_daseinise_proposition
from .errors import ToposError, ValidationError
from .logic import Sieve, _check_sieve_laws
from .presheaf import gelfand_spectrum
from .problems import Problem, load_problem, problem_poset, resolve_proposition
from .valuation import DEFAULT_SEARCH_BUDGET, global_sections, pseudo_state, quantity_value_arrows, truth_value

COMMANDS = (
    "contexts",
    "spectrum",
    "daseinize",
    "pseudo-state",
    "truth",
    "value",
    "heyting-check",
    "sections",
)

#: Sieve triples checked per context by ``heyting-check`` unless ``--triples``
#: says otherwise.
HEYTING_TRIPLE_CAP = 200_000


def _context_entry(context, encoded: dict[int, list]) -> dict:
    return {
        "id": context.id,
        "atom_count": context.n_atoms,
        "atom_ranks": list(context.ranks),
        "atoms": [encoded[id(a)] for a in context.atoms],
    }


def _select_contexts(poset: ContextPoset, options: Mapping) -> list:
    wanted = options.get("context")
    if wanted is None:
        return list(poset)
    return [poset.get(wanted)]


def _per_context(daseinised: DaseinisedProposition) -> dict:
    # The daseinize and pseudo-state reports' map: per context, in poset
    # order, the approximation (all encoded in one call) and its characters.
    projectors = daseinised.per_context_projector
    return {
        cid: {"projector": encoded, "characters": sorted(daseinised.subobject.at(cid))}
        for cid, encoded in zip(projectors, matrix_to_json(list(projectors.values()), 12))
    }


def _sieve_json(sieve: Sieve) -> dict:
    return {"base": sieve.base, "members": sorted(sieve.members)}


def run_command(command: str, problem: Problem, options: Mapping) -> dict:
    """Execute one CLI command against a loaded problem; returns the report.

    In the ``contexts`` report, contexts that hold the same atom share one
    list for its matrix."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    poset = problem_poset(problem)

    if command == "contexts":
        # The poset keeps one array per distinct atom: each gets one list, by
        # its id, made in one call on their stack and shared where it recurs.
        atoms = {id(a): a for c in poset for a in c.atoms}
        encoded = dict(zip(atoms, matrix_to_json(list(atoms.values()), 12)))
        return {
            "dim": poset.dim,
            "count": len(poset),
            "contexts": [_context_entry(c, encoded) for c in poset],
            "leq": sorted([sub, sup] for sup, sub in poset.inclusions),
        }

    if command == "spectrum":
        report = {}
        for context in _select_contexts(poset, options):
            report[context.id] = {
                "characters": [
                    {"context": ch.context_id, "atom": ch.atom_index}
                    for ch in gelfand_spectrum(context)
                ],
                "atom_ranks": list(context.ranks),
            }
        return {"contexts": report}

    if command == "daseinize":
        name = _require_option(options, "prop")
        mode = options.get("mode")
        if mode is None:
            mode = "outer"
        if mode not in ("outer", "inner"):
            raise ValidationError(f"unknown daseinisation mode {mode!r}; use 'outer' or 'inner'")
        projector = resolve_proposition(problem, name)
        daseinise = daseinise_proposition if mode == "outer" else inner_daseinise_proposition
        return {
            "proposition": name,
            "mode": mode,
            "projector": matrix_to_json(projector, 12),
            "contexts": _per_context(daseinise(poset, projector)),
        }

    if command == "pseudo-state":
        name = _require_option(options, "state")
        psi = _resolve_state(problem, name)
        return {
            "state": name,
            "vector": vector_to_json(psi, 12),
            "contexts": _per_context(pseudo_state(poset, psi)),
        }

    if command == "truth":
        prop_name = _require_option(options, "prop")
        state_name = _require_option(options, "state")
        projector = resolve_proposition(problem, prop_name)
        psi = _resolve_state(problem, state_name)
        element = truth_value(poset, projector, psi)
        return {
            "proposition": prop_name,
            "state": state_name,
            "sieves": {cid: _sieve_json(element.at(cid)) for cid in poset.ids},
        }

    if command == "value":
        name = _require_option(options, "observable")
        if name not in problem.observables:
            raise ValidationError(f"unknown observable {name!r}")
        wanted = options.get("context")
        arrows = quantity_value_arrows(poset, problem.observables[name], None if wanted is None else poset.get(wanted))
        # Every mu and nu is an eigenvalue of the observable: each distinct one is rounded once.
        rounded = cache(round_real)
        intervals = [
            {
                "context": ch.context_id,
                "character_atom": ch.atom_index,
                "mu": {s: rounded(lam) for s, lam in sorted(pair.mu.items())},
                "nu": {s: rounded(lam) for s, lam in sorted(pair.nu.items())},
            }
            for ch, pair in arrows.items()
        ]
        return {"observable": name, "intervals": intervals}

    if command == "heyting-check":
        limit = options.get("triples")
        if limit is None:
            limit = HEYTING_TRIPLE_CAP
        if limit != "all" and not (integer(limit) and limit > 0):
            raise ValidationError(f"triples must be a positive integer or 'all', not {limit!r}")
        report = {}
        for context in _select_contexts(poset, options):
            report[context.id] = _check_sieve_laws(poset, context.id, limit)
        return {"contexts": report}

    # sections
    budget = options.get("budget")
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    found = global_sections(poset, budget)
    return {
        "count": len(found),
        "sections": [{"assignment": dict(sorted(s.assignment.items()))} for s in found],
    }


def _require_option(options: Mapping, key: str) -> str:
    value = options.get(key)
    if not value:
        raise ValidationError(f"command requires --{key}")
    return value


def _resolve_state(problem: Problem, name: str):
    if name not in problem.states:
        raise ValidationError(f"unknown state {name!r}")
    return problem.states[name]


# -- rendering ---------------------------------------------------------------


def render_json(report: dict) -> str:
    return dumps(report)


def render_table(command: str, report: dict) -> str:
    lines: list[str] = []
    if command == "contexts":
        lines.append(f"dim {report['dim']}, {report['count']} contexts")
        lines.append(f"{'context':<18} {'atoms':>5}  ranks")
        for entry in report["contexts"]:
            ranks = "|".join(str(r) for r in entry["atom_ranks"])
            lines.append(f"{entry['id']:<18} {entry['atom_count']:>5}  [{ranks}]")
    elif command == "spectrum":
        lines.append(f"{'context':<18} {'points':>6}  ranks")
        for cid, entry in sorted(report["contexts"].items()):
            ranks = "|".join(str(r) for r in entry["atom_ranks"])
            lines.append(f"{cid:<18} {len(entry['characters']):>6}  [{ranks}]")
    elif command in ("daseinize", "pseudo-state"):
        head = report.get("proposition") or report.get("state")
        lines.append(f"{command} {head}")
        lines.append(f"{'context':<18} characters  projector diagonal")
        for cid, entry in sorted(report["contexts"].items()):
            chars = ",".join(str(i) for i in entry["characters"])
            diag = ", ".join(
                f"{row[i][0]:g}" for i, row in enumerate(entry["projector"])
            )
            lines.append(f"{cid:<18} {{{chars}}}        [{diag}]")
    elif command == "truth":
        lines.append(f"truth of {report['proposition']} in state {report['state']}")
        lines.append(f"{'context':<18} sieve")
        for cid, sieve in sorted(report["sieves"].items()):
            members = ", ".join(sieve["members"]) if sieve["members"] else "(empty)"
            lines.append(f"{cid:<18} {members}")
    elif command == "value":
        lines.append(f"interval values of {report['observable']}")
        lines.append(f"{'context':<18} {'atom':>4}  [mu, nu] at the context itself")
        for entry in report["intervals"]:
            cid = entry["context"]
            mu = entry["mu"][cid]
            nu = entry["nu"][cid]
            lines.append(f"{cid:<18} {entry['character_atom']:>4}  [{mu:g}, {nu:g}]")
    elif command == "heyting-check":
        lines.append(f"{'context':<18} {'sieves':>6} {'triples':>8} {'violations':>10}  witness")
        for cid, entry in sorted(report["contexts"].items()):
            witness = entry["excluded_middle_witness"]
            shown = "{" + ", ".join(witness) + "}" if witness is not None else "-"
            lines.append(
                f"{cid:<18} {entry['sieve_count']:>6} {entry['triples_checked']:>8} "
                f"{entry['violations']:>10}  {shown}"
            )
    else:  # sections
        lines.append(f"{report['count']} global section(s)")
        for i, section in enumerate(report["sections"]):
            parts = ", ".join(f"{cid}:{atom}" for cid, atom in section["assignment"].items())
            lines.append(f"section {i}: {parts}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposqt",
        description="Contextual state-space computations over finite operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if name in ("spectrum", "value", "heyting-check"):
            p.add_argument("--context", help="restrict to one context id")
        if name in ("daseinize", "truth"):
            p.add_argument("--prop", help="proposition name")
        if name in ("pseudo-state", "truth"):
            p.add_argument("--state", help="state name")
        if name == "value":
            p.add_argument("--observable", help="observable name")
        if name == "daseinize":
            p.add_argument("--mode", choices=("outer", "inner"))
        if name == "heyting-check":
            p.add_argument(
                "--triples", type=_triples, metavar="N|all",
                help=f"sieve triples checked per context (default {HEYTING_TRIPLE_CAP:,})",
            )
        if name == "sections":
            p.add_argument("--budget", type=int)
    return parser


def _triples(text: str) -> int | str:
    if text == "all":
        return text
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'all', got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    options = {
        key: getattr(args, key, None)
        for key in ("context", "state", "prop", "observable", "mode", "budget", "triples")
    }
    try:
        problem = load_problem(args.input)
        report = run_command(args.command, problem, options)
    except (ToposError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.format == "table":
            sys.stdout.write(render_table(args.command, report))
        else:
            dump(report, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Standard output is pointed at devnull, so that
        # the flush at exit writes what is left there, without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
