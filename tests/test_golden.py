"""CLI outputs on fixed inputs, compared byte for byte with committed outputs.

Each case runs ``ncroots.cli.main`` on inputs under ``data/golden`` and
writes ``-o``; the expected file is ``data/golden/<case>.out.json``.
"""

from pathlib import Path

import pytest

from ncroots.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "factor_n3": ["factor", "rootset_n3.json"],
    "factor_n3_orderings": ["factor", "rootset_n3.json", "--ordering", "2,3,1", "--ordering", "3,1,2"],
    "derive_n4": ["derive", "boolean_n4.json", "bottom_star_n4.json"],
    "divisors_cubic": ["divisors", "cubic.json", "cubic_set.json"],
}


def run_case(name: str, out: Path) -> int:
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in CASES[name]]
    return main(argv + ["-o", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / "out.json"
    assert run_case(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out.json").read_bytes()
