"""Each narrative demo runs to completion in-process."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_clark_atoms.py", "02_potential_conditions.py",
                                  "03_cauchy_sections.py",
                                  "04_perturbation_and_verdicts.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
