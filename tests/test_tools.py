"""Smoke tests of the scripts under ``tools/`` that write the README's and
the BENCH records' numbers."""

from __future__ import annotations

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str, monkeypatch):
    # Load tools/<name>.py as a module; the sys.path entries it adds are
    # undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"_tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_single_basis_prints_each_context_count(monkeypatch, capsys):
    assert _tool("time_single_basis", monkeypatch).main(["4", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["dim 4: 11 contexts", "dim 5: 26 contexts"]
    for line in lines:
        assert re.fullmatch(
            r"dim \d: \d+ contexts, build min [\d.]+ s, median [\d.]+ s; "
            r"run_command min [\d.]+ s, median [\d.]+ s, peak RSS \d+ MB; "
            r"dump to a file min [\d.]+ s, median [\d.]+ s, peak RSS \d+ MB; "
            r"render_json min [\d.]+ s, median [\d.]+ s, peak RSS \d+ MB; "
            r"truth_value first [\d.]+ ms, warm [\d.]+ ms; and first [\d.]+ ms, warm [\d.]+ ms; "
            r"or first [\d.]+ ms, warm [\d.]+ ms; implies first [\d.]+ ms, warm [\d.]+ ms; "
            r"not first [\d.]+ ms, warm [\d.]+ ms; implies, read first [\d.]+ ms, warm [\d.]+ ms; "
            r"check_global_element first [\d.]+ ms, warm [\d.]+ ms; value sweep first [\d.]+ ms, warm [\d.]+ ms; "
            r"rotating value sweep first [\d.]+ ms, warm [\d.]+ ms; "
            r"interleaved value sweep first [\d.]+ ms, warm [\d.]+ ms; "
            r"value arrows first [\d.]+ ms, warm [\d.]+ ms; inner daseinisation first [\d.]+ ms, warm [\d.]+ ms; "
            r"subobject implies first [\d.]+ ms, warm [\d.]+ ms; is_clopen_subobject first [\d.]+ ms, warm [\d.]+ ms; "
            r"global_sections first [\d.]+ ms, warm [\d.]+ ms; peak RSS \d+ MB",
            line,
        )


@pytest.mark.parametrize("claim", [None, "", "  "], ids=["missing", "empty", "blank"])
def test_bench_pair_requires_a_claim(monkeypatch, capsys, claim):
    # Refused while parsing, before any benchmark runs.
    argv = ["--parent", ".", "--slug", "x"] + ([] if claim is None else ["--claim", claim])
    with pytest.raises(SystemExit) as exit_:
        _tool("bench_pair", monkeypatch).main(argv)
    assert exit_.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_bench_pair_reads_a_seed_list(monkeypatch):
    seeds = _tool("bench_pair", monkeypatch)._seeds
    assert seeds("build:1-3,7") == ("build", [1, 2, 3, 7])
    with pytest.raises(argparse.ArgumentTypeError, match="expected WORKLOAD:SEEDS"):
        seeds(":1-3")
