"""Each demo runs to its end and prints what its narrative promises.

The demos run in a temporary directory, so the files they write land there.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the end of one line each demo prints
LAST_WORDS = {
    "generate_data.py": "wrote demo_draw_extreme.csv",
    "fit_single_bcf.py": "100 retained draws",
    "rank_tests_tour.py": "exact separated triples: U=0.0, p=0.1",
}


@pytest.mark.parametrize("name", sorted(LAST_WORDS))
def test_demo_runs(name, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith(LAST_WORDS[name]) for line in lines), lines


def test_every_demo_is_run():
    assert {path.name for path in DEMOS.glob("*.py")} == set(LAST_WORDS)
