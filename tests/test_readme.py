"""README's library example runs as printed, so it cannot drift from the API."""

import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_in_a_fresh_interpreter():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
