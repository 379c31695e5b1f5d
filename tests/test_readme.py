"""README examples run against the package, so the documented API and the
code cannot drift apart."""

import contextlib
import io
import re

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
