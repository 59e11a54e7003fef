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
two truth values, whose sieves are not built; of ``implies, read``, the
implication followed by a read of every sieve of the result, which builds
them; of ``check_global_element`` on a truth value, which builds its sieves
at the first call, and also every context's sieve frame (its down-set ids,
sorted, and their down-set ints, looked up in the poset's); of a value
sweep: one ``quantity_value_arrow`` per character of every context, whose
first call clusters the observable and builds its seed-atom table, whose
first round fills every character's bounds, and whose warm round reads them
back from the context's slot; of a rotating sweep, the same calls with
three observables in turn, one per character, so that every call misses
the two slots a context keeps and clusters its observable again; of an
interleaved sweep, which sweeps each context with one of the first two
observables, by the parity of its position in the poset, as the
benchmark's query passes interleave theirs: its first round misses the
poset's slot at every context, and its warm round reads each context's own;
of ``quantity_value_arrows`` over the whole poset, which builds them too; and
of ``inner_daseinise_proposition`` of the first proposition, whose first
call builds the poset's seed sums.  Then, again on a fresh poset each,
the first and a warm call of ``subobject_connective`` ``implies`` on the
outer daseinisations of the two propositions, of ``is_clopen_subobject`` on
the first of them, and of ``global_sections``, whose first calls build the
character order (every character's down-set int).  The propositions are sums
of atoms of the top context (the basis), the state is an even superposition
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
from toposqt.daseinisation import daseinise_proposition, inner_daseinise_proposition  # noqa: E402
from toposqt.logic import check_global_element, global_element_connective, subobject_connective  # noqa: E402
from toposqt.presheaf import gelfand_spectrum, is_clopen_subobject  # noqa: E402
from toposqt.problems import problem_from_dict  # noqa: E402
from toposqt.valuation import (  # noqa: E402
    global_sections,
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
        "or": lambda poset, g1, g2: global_element_connective(poset, "or", g1, g2),
        "implies": lambda poset, g1, g2: global_element_connective(poset, "implies", g1, g2),
        "not": lambda poset, g1, g2: global_element_connective(poset, "not", g1),
        "implies, read": lambda poset, g1, g2: global_element_connective(poset, "implies", g1, g2).sieves,
        "check_global_element": lambda poset, g1, g2: check_global_element(poset, g1),
    }
    for label, call in calls.items():
        poset = build_poset([seed])
        operands = poset, truth_value(poset, P, psi), truth_value(poset, Q, psi)
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
    poset = build_poset([seed])
    parts.append(f"inner daseinisation {_first_and_warm(lambda: inner_daseinise_proposition(poset, P))}")
    return "; ".join(parts)


def _characters(seed, basis: list[np.ndarray]) -> str:
    # The implication of two clopen subobjects, the clopen test and the
    # section search, each on a fresh poset, so that each first call builds
    # the character order.
    P, Q = _propositions(basis)
    poset = build_poset([seed])
    s1, s2 = (daseinise_proposition(poset, R).subobject for R in (P, Q))
    parts = [f"subobject implies {_first_and_warm(lambda: subobject_connective(poset, 'implies', s1, s2))}"]
    poset = build_poset([seed])
    s1 = daseinise_proposition(poset, P).subobject
    parts.append(f"is_clopen_subobject {_first_and_warm(lambda: is_clopen_subobject(poset, s1))}")
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
