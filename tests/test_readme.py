"""README's library example runs as written and prints what its comments say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example opens programs/ by a relative path
    exec(compile(block, "README.md", "exec"), {})
    value, cost, counts, in_place, sizes = capsys.readouterr().out.splitlines()
    assert (cost, counts, sizes) == ("11", "11 35", "10 20")
    assert in_place == value  # the answer printed in place, as the memo engine gave it
