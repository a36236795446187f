"""Each demo prints exactly its recorded output in tests/goldens/."""

import runpy
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = ["01_array_basics", "02_transform_pipeline", "03_delivery_and_compression", "04_tradeoff_curves"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_golden(name, capsys):
    runpy.run_path(str(TESTS.parent / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (TESTS / "goldens" / f"{name}.txt").read_text()
