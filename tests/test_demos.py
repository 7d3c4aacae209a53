"""The demo scripts, the README quickstart and its flag list match the current API."""

import pathlib
import re
import runpy
import shutil

import pytest

from divcurl.cli import _build_parser

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    # run a copy: demo 01 writes its VTK files next to the script
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_flags_name_the_parsers_options():
    readme = (ROOT / "README.md").read_text()
    (paragraph,) = re.findall(r"^Flags: (.*?)\n\n", readme, re.S | re.M)
    named = set(re.findall(r"--[a-z0-9-]+", paragraph))
    options = {
        flag
        for action in _build_parser()._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert named == options
