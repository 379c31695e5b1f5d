"""README examples, the documented scenario schema and the documented
command-line flags are checked against the package, so the documentation
and the code cannot drift apart."""

import argparse
import contextlib
import io
import re

from harvest_guard.cli import build_parser
from harvest_guard.world import ScenarioConfig, save_config

from conftest import REPO_ROOT


def _library_use_block() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def test_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_use_block(), "README.md#library-use", "exec"), {"__name__": "readme_example"})
    count, mean = out.getvalue().split()
    assert int(count) > 0 and float(mean) > 0


def test_scenario_ini_block_is_what_save_config_writes(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario configuration\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```ini\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    documented = "".join(line for line in blocks[0].splitlines(keepends=True) if not line.startswith(";"))
    save_config(tmp_path / "scenario.ini", ScenarioConfig())
    assert documented.strip() == (tmp_path / "scenario.ini").read_text().strip()


def _subcommand_options() -> set[str]:
    """Every long option of every build_parser() subcommand."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {o for p in sub.choices.values() for a in p._actions for o in a.option_strings if o.startswith("--")}


def test_command_line_chapter_names_exactly_the_subcommand_flags():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    chapter = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", chapter))
    options = _subcommand_options()
    assert documented - options == set()  # a flag README names that no subcommand has
    assert options - {"--help"} - documented == set()  # a flag README never names
