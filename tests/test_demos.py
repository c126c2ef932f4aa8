"""The walkthroughs in demos/ print what demos/expected/ holds, so the
reprs they print (a Poly's among them) run under the tests too."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("demo", ["01_separation", "02_rewrite", "03_smooth"])
def test_output_is_the_expected(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out == (DEMOS / "expected" / f"{demo}.txt").read_text(
        encoding="utf-8")
