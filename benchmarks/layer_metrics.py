"""Per-layer metrics derived from the spans of a traced run.

Timings are the median duration of one call, over the spans named in
``CALLS``; the filter keeps each set of calls homogeneous (one poset, one
kind of context), so that the median does not jump between call types.
``cli.*`` are totals per pass of the ``build`` list, whose problems differ in
size by design.  Self times are per pass of a workload's op list, inside its
``bench.op`` spans.  Counts are exact totals over one pass.
"""

from __future__ import annotations

import numpy as np

#: metric -> (unit, scale, [(span name, tag prefix), ...]); median per call.
CALLS = {
    "problems.load_problem_ms": ("ms", 1e3, [("problems.load_problem", "ks18")]),
    "contexts.problem_seed_contexts_ms": ("ms", 1e3, [("contexts.problem_seed_contexts", "ks18")]),
    **{
        f"contexts.build_poset_ms.{tag}": ("ms", 1e3, [("contexts.build_poset", tag)])
        for tag in ("dim4", "dim5", "dim6", "dim7", "ks18", "multi")
    },
    "contexts.down_ids_us": ("us", 1e6, [("contexts.down_ids", "ks18")]),
    "daseinisation.daseinise_proposition_ms": ("ms", 1e3, [("daseinisation.daseinise_proposition", "ks18")]),
    "daseinisation.inner_sweep_ms": ("ms", 1e3, [("bench.op", "query.inner_sweep@ks18")]),
    "valuation.truth_value_ms.aligned": ("ms", 1e3, [("valuation.truth_value", "ks18.aligned")]),
    "valuation.truth_value_ms.generic": ("ms", 1e3, [("valuation.truth_value", "ks18.generic")]),
    "valuation.pseudo_state_ms": ("ms", 1e3, [("valuation.pseudo_state", "ks18")]),
    "valuation.quantity_value_arrow_ms": ("ms", 1e3, [("valuation.quantity_value_arrow", "ks18")]),
    "valuation.value_sweep_ms": ("ms", 1e3, [("bench.op", "query.value_sweep@ks18")]),
    "valuation.global_sections_ms": ("ms", 1e3, [("valuation.global_sections", "ks18")]),
    "presheaf.is_clopen_subobject_ms": ("ms", 1e3, [("presheaf.is_clopen_subobject", "ks18")]),
    "logic.check_global_element_ms": ("ms", 1e3, [("logic.check_global_element", "ks18")]),
    "logic.enumerate_sieves_ms": ("ms", 1e3, [("logic.enumerate_sieves", "ks18.a4")]),
    "logic.implies_us.spin2": ("us", 1e6, [("logic.sieve_connective", "implies.spin2.a4")]),
    "logic.implies_us.ks18": ("us", 1e6, [("logic.sieve_connective", "implies.ks18.a4")]),
    "logic.and_or_us": ("us", 1e6, [("logic.sieve_connective", "and.ks18.a4"), ("logic.sieve_connective", "or.ks18.a4")]),
    "logic.subobject_connective_ms": ("ms", 1e3, [("logic.subobject_connective", "implies.ks18")]),
    "logic.global_element_connective_ms": ("ms", 1e3, [("logic.global_element_connective", "implies.ks18")]),
}

#: metric -> (workload whose op list makes the calls, span name); total per pass.
PER_PASS = {
    "cli.run_command_ms.contexts": ("build", "cli.run_command"),
    "cli.render_json_ms": ("build", "cli.render_json"),
}

#: metric -> (workload, counter); exact totals over one pass.  The contexts
#: counts are over the posets the named workload builds or reads.
COUNTS = {
    "contexts.contexts": (None, "contexts"),
    "contexts.inclusions": (None, "inclusions"),
    "contexts.atoms": (None, "atoms"),
    "valuation.characters_evaluated": ("query", "characters_evaluated"),
    "valuation.sections_found": ("query", "sections_found"),
    "logic.sieves": ("heyting", "sieves"),
    "logic.triples_checked": ("heyting", "triples_checked"),
    "logic.law_violations": ("heyting", "law_violations"),
    "logic.excluded_middle_failures": ("heyting", "excluded_middle_failures"),
}

#: Self time per pass (ms) of each layer that a workload's op list calls.
SELF_TIMES = {
    "build": ("problems", "cli", "bench"),
    "query": ("daseinisation", "valuation", "presheaf", "bench"),
    "heyting": ("logic", "contexts", "bench"),
}


def metric_names() -> list[str]:
    names = list(CALLS) + list(PER_PASS) + list(COUNTS)
    names += [f"{layer}.self_ms.{w}" for w, layers in SELF_TIMES.items() for layer in layers]
    return names + ["trace.overhead_pct"]


def layer_metrics(tr, records, workloads, named: str, overhead_pct: float, small: bool = False) -> dict:
    """Every per-layer metric from the tracer's spans; ``small`` runs (the
    benchmark's self-test) read spin2 where the metric names ks18."""
    main = "spin2" if small else "ks18"
    out: dict[str, tuple[float | None, str]] = {}
    for metric, (unit, scale, spans) in CALLS.items():
        values = np.concatenate(
            [tr.durations(name, tag.replace("ks18", main)) for name, tag in spans]
        )
        out[metric] = (float(np.median(values)) * scale if values.size else None, unit)
    ops_of = {}
    for r in records:
        ops_of.setdefault(r["workload"], []).append(r["id"])
    passes_of = {w: 1 + max(r["pass"] for r in records if r["workload"] == w) for w in ops_of}
    for metric, (workload, name) in PER_PASS.items():
        total = tr.durations(name, ops=ops_of[workload]).sum()
        out[metric] = (1e3 * float(total) / passes_of[workload], "ms")
    for metric, (workload, counter) in COUNTS.items():
        totals = workloads[workload or named].pass_totals()
        out[metric] = (totals.get(counter, 0), "count")
    for workload, layers in SELF_TIMES.items():
        own = tr.self_times(ops_of[workload])
        for layer in layers:
            out[f"{layer}.self_ms.{workload}"] = (1e3 * own.get(layer, 0.0) / passes_of[workload], "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
