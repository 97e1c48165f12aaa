"""README.md's Python examples run as written: its ```python blocks, in
order and in one namespace, and each `print(...)  # value` line prints
that value."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.S | re.M)
SHOWN = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_readme_examples_print_what_they_say():
    printed, shown = [], []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in BLOCKS:
        shown += [m.group(1) for m in map(SHOWN.match, block.splitlines()) if m]
        exec(compile(block, str(README), "exec"), namespace)
    assert shown and printed == shown
