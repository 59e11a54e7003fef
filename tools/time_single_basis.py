"""Time ``build_poset``, the ``contexts`` report, truth values and the character order on one Haar-random basis per dimension.

Usage, from the root of this checkout::

    python3 tools/time_single_basis.py 4 5 6 7 8 9 10

Prints, for each dimension n, the context count (2^n - n - 1), the least and
the median wall time of ``REPEAT`` builds, and the same for ``REPEAT``
``contexts`` reports of the same basis, in their parts: ``run_command``,
which builds the poset again and makes the report's dict; ``dump`` of that
dict to a file, as the CLI streams it to standard output; and
``render_json``, which makes the whole text as one string.  Each of the three
is followed by the process peak RSS so far, in that order, so the growth
from ``run_command`` to the streamed write is the cost of writing in chunks.
No two results of one part are alive at once.  Then, on a fresh poset each,
the first and a warm call of ``truth_value``; of
``global_element_connective`` ``and``, ``or``, ``implies`` and ``not`` on
two truth values, whose sieves are not built; of ``and, read operands``,
the conjunction of the same two after a read of every sieve of each, which
the connective checks against the down-set each keeps; of ``implies,
read``, the implication followed by a read of every sieve of the result,
which builds them; of ``check_global_element`` on a truth value, which builds its sieves
at the first call and no sieve frame, as it reads no sieve's ints; of
``==, one read operand``, the comparison of the two after a read of every
sieve of the first, which compares the down-sets they keep; of a value
sweep: one ``quantity_value_arrow`` per character of every context, whose
first call clusters the observable and keeps the bounds of every poset
atom, which each later call gathers at its character's restricted atoms;
of a rotating sweep, the same calls with three observables in turn, one per
character; of an interleaved sweep, which sweeps each context with one of
the first two observables, by the parity of its position in the poset.
The first round of each clusters each of its observables once, and the warm
round reads back the bounds the poset keeps for each of them.  Then of
``quantity_value_arrows`` over the whole poset, which keeps them too; of
a per-context inner sweep, ``inner_daseinise_projection`` of the first
proposition at every context, whose first call checks the proposition a
projection and builds its columns (1 - P | P), which the later calls, and
the warm sweep, read from the slot of the last projection checked; and
of ``inner_daseinise_proposition`` of the first proposition, whose first
call builds the poset's seed sums and its stacks of atoms, and of
``daseinise_proposition`` of it and ``pseudo_state`` of the state, which
build them too.  Then, again on a fresh poset each,
the first and a warm call of ``subobject_connective`` ``implies`` on the
outer daseinisations of the two propositions, whose first call builds the
character order (every character's down-set int); of ``subobject and``,
``subobject or`` and ``subobject_leq`` on them, an AND, an OR and an AND
with a complement of their ints, none of which builds the character order;
of ``selection, read``, the first read of the
``selection`` of each of them in turn, which builds its dict from its int;
and of ``is_clopen_subobject`` on the first of them and of
``global_sections``, whose first calls build the character order too.  The
propositions are sums of atoms of the top context (the basis), the state is an even superposition
of two of its rays, and the observable of the sweep has the eigenvalues 0,
..., n - 1 on the basis rays (the second observable n - 1, ..., 0, the
third k // 2 on ray k).  Each line ends with the process peak RSS so far.  It
is a high-water mark, so it never falls from one dimension to the next.  The
basis of dimension n is ``benchmarks/inputs.haar_unitary`` drawn from seed
``[1, n]``.  The library comes from ``PYTHONPATH`` when it
names one (to time another checkout), else from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import resource
import statistics
import sys
import tempfile
import time
from itertools import cycle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
from inputs import haar_unitary, problem_dict  # noqa: E402

from toposqt._json import dump  # noqa: E402
from toposqt.cli import render_json, run_command  # noqa: E402
from toposqt.contexts import build_poset, context_from_basis  # noqa: E402
from toposqt.daseinisation import (  # noqa: E402
    daseinise_proposition,
    inner_daseinise_projection,
    inner_daseinise_proposition,
)
from toposqt.logic import check_global_element, global_element_connective, subobject_connective  # noqa: E402
from toposqt.presheaf import gelfand_spectrum, is_clopen_subobject, subobject_leq  # noqa: E402
from toposqt.problems import problem_from_dict  # noqa: E402
from toposqt.valuation import (  # noqa: E402
    global_sections,
    pseudo_state,
    quantity_value_arrow,
    quantity_value_arrows,
    truth_value,
)

#: Builds, and reports, timed per dimension.
REPEAT = 3


def _times(call) -> tuple[str, object]:
    # "min X s, median Y s" over REPEAT calls, and the last call's result.
    times = []
    for _ in range(REPEAT):
        result = None  # freed before the next call
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return f"min {min(times):.3f} s, median {statistics.median(times):.3f} s", result


def _peak_rss() -> str:
    return f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB"


def _first_and_warm(call) -> str:
    # "first X ms, warm Y ms": two calls in a row, each after a collection,
    # so that neither pays for the garbage of the builds and reports before.
    times = []
    for _ in range(2):
        gc.collect()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return f"first {1e3 * times[0]:.2f} ms, warm {1e3 * times[1]:.2f} ms"


def _propositions(basis: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    # The projections onto the first and second, and the first and third, basis rays.
    P, Q = (sum(np.outer(basis[i], basis[i].conj()) for i in pair) for pair in ((0, 1), (0, 2)))
    return P, Q


def _logic(seed, basis: list[np.ndarray]) -> str:
    # truth_value, the connectives and the check of truth values, and a value
    # sweep, each on a fresh poset, so that each first call builds what it uses.
    P, Q = _propositions(basis)
    psi = (basis[0] + basis[1]) / np.sqrt(2)
    poset = build_poset([seed])
    parts = [f"truth_value {_first_and_warm(lambda: truth_value(poset, P, psi))}"]
    calls = {
        "and": lambda poset, g1, g2: global_element_connective(poset, "and", g1, g2),
        "and, read operands": lambda poset, g1, g2: global_element_connective(poset, "and", g1, g2),
        "or": lambda poset, g1, g2: global_element_connective(poset, "or", g1, g2),
        "implies": lambda poset, g1, g2: global_element_connective(poset, "implies", g1, g2),
        "not": lambda poset, g1, g2: global_element_connective(poset, "not", g1),
        "implies, read": lambda poset, g1, g2: global_element_connective(poset, "implies", g1, g2).sieves,
        "check_global_element": lambda poset, g1, g2: check_global_element(poset, g1),
        "==, one read operand": lambda poset, g1, g2: g1 == g2,
    }
    for label, call in calls.items():
        poset = build_poset([seed])
        operands = poset, truth_value(poset, P, psi), truth_value(poset, Q, psi)
        read = {"and, read operands": 2, "==, one read operand": 1}.get(label, 0)
        for element in operands[1 : 1 + read]:
            element.sieves
        parts.append(f"{label} {_first_and_warm(lambda: call(*operands))}")
    A = sum(k * np.outer(v, v.conj()) for k, v in enumerate(basis))
    B = sum(k * np.outer(v, v.conj()) for k, v in enumerate(reversed(basis)))
    C = sum(k // 2 * np.outer(v, v.conj()) for k, v in enumerate(basis))
    for label, operands in (("value sweep", [A]), ("rotating value sweep", [A, B, C])):
        poset = build_poset([seed])

        def sweep():
            operand = cycle(operands)
            for context in poset:
                for character in gelfand_spectrum(context):
                    quantity_value_arrow(poset, next(operand), context, character)

        parts.append(f"{label} {_first_and_warm(sweep)}")
    poset = build_poset([seed])

    def interleaved():
        for i, context in enumerate(poset):
            for character in gelfand_spectrum(context):
                quantity_value_arrow(poset, (A, B)[i % 2], context, character)

    parts.append(f"interleaved value sweep {_first_and_warm(interleaved)}")
    poset = build_poset([seed])
    parts.append(f"value arrows {_first_and_warm(lambda: quantity_value_arrows(poset, A))}")
    for label, call in (("per-context inner daseinisation",
                         lambda poset: [inner_daseinise_projection(P, c) for c in poset]),
                        ("inner daseinisation", lambda poset: inner_daseinise_proposition(poset, P)),
                        ("outer daseinisation", lambda poset: daseinise_proposition(poset, P)),
                        ("pseudo_state", lambda poset: pseudo_state(poset, psi))):
        poset = build_poset([seed])
        parts.append(f"{label} {_first_and_warm(lambda: call(poset))}")
    return "; ".join(parts)


def _characters(seed, basis: list[np.ndarray]) -> str:
    # The implication, conjunction, disjunction and inclusion of two clopen subobjects, the
    # lazy read of a selection, the clopen test and the section search, each
    # on a fresh poset, so that each first call builds what it uses.  A
    # subobject holds its poset, so both go before the next poset is built.
    P, Q = _propositions(basis)
    calls = {
        "subobject implies": lambda poset, s: subobject_connective(poset, "implies", *s),
        "subobject and": lambda poset, s: subobject_connective(poset, "and", *s),
        "subobject or": lambda poset, s: subobject_connective(poset, "or", *s),
        "subobject_leq": lambda poset, s: subobject_leq(poset, *s),
        "selection, read": lambda poset, s: s.pop().selection,
        "is_clopen_subobject": lambda poset, s: is_clopen_subobject(poset, s[0]),
    }
    parts = []
    for label, call in calls.items():
        poset = subobjects = None
        poset = build_poset([seed])
        subobjects = [daseinise_proposition(poset, R).subobject for R in (P, Q)]
        parts.append(f"{label} {_first_and_warm(lambda: call(poset, subobjects))}")
    poset = subobjects = None
    poset = build_poset([seed])
    parts.append(f"global_sections {_first_and_warm(lambda: global_sections(poset))}")
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dims", type=int, nargs="+")
    args = parser.parse_args(argv)
    for dim in args.dims:
        basis = list(haar_unitary(np.random.default_rng([1, dim]), dim).T)
        seed = context_from_basis(basis)
        build, poset = _times(lambda: build_poset([seed]))
        problem = problem_from_dict(problem_dict(dim, [basis]))
        command, report = _times(lambda: run_command("contexts", problem, {}))
        command += f", {_peak_rss()}"
        with tempfile.TemporaryFile("w") as out:
            streamed, _ = _times(lambda: (out.seek(0), dump(report, out.write), out.truncate()))
        streamed += f", {_peak_rss()}"
        render, _ = _times(lambda: render_json(report))
        render += f", {_peak_rss()}"
        print(f"dim {dim}: {len(poset)} contexts, build {build}; run_command {command}; dump to a file {streamed}; "
              f"render_json {render}; {_logic(seed, basis)}; {_characters(seed, basis)}; {_peak_rss()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
