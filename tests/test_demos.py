"""Every narrative walkthrough in demos/ runs to the end against the current API,
and README.md names every public name of the package."""

import inspect
import pathlib
import re
import runpy

import pytest

import viakit

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_names_every_export():
    """Each public name of viakit is a word of an inline code span of README.md
    (fenced blocks aside), so removing or adding an export means a README edit."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    named = {w for span in re.findall(r"`([^`]+)`", text) for w in re.findall(r"\w+", span)}
    exports = [n for n, v in vars(viakit).items()
               if not n.startswith("_") and not inspect.ismodule(v)]
    assert len(exports) > 90
    assert [n for n in exports if n not in named] == []
