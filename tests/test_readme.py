"""The README's code is run, so an example that stops working fails a
test instead of a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs(fresh_python):
    # Each block in a fresh interpreter; a nonzero exit fails the test.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for code in blocks:
        fresh_python(code)
