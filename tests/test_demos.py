"""The walkthrough scripts in ``demos/`` run and print the pinned output.

Each demo runs in a subprocess with ``PYTHONPATH=src``.  The sha256 of its
stdout was taken from the reference implementation, with every ``<n>.<m>s``
duration masked because ``kochen_specker.py`` prints its build time.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of each demo's stdout after masking durations.
GOLDEN = {
    "heyting_logic.py": "5ff8cf810276b435ce8fcbd2bc2f167d4c08d515c1253cbfc5ce1dce754ed494",
    "kochen_specker.py": "223b8d223beb8cceb19705fc5a83ec8e52998f441fe0c861a6ae448cd045847a",
    "physical_quantities.py": "255d96e83837a2c46626a4fbac1c14bc816f11e912de7766a8e24f0f2e437864",
    "propositions.py": "020f3273125e3c0881f5e587b167292034ce8a526bca4790a92a535f4a96b2ee",
    "pseudo_states.py": "29b7b6436d902ade313e36218716e9d5f9db9796ae94b4d631426becb43387df",
    "state_space.py": "b0eee30a933072df4ee194982b6d168a6bb2b15ce3a08dc5742d0666dd115412",
    "truth_values.py": "8925a8d8320b952e0114203eb6039e521231c1c96fa1ee27437901c284d26f37",
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    masked = re.sub(r"\d+\.\d+s", "<duration>", result.stdout)
    assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == GOLDEN[name]
