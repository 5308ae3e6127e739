"""README's examples run as written and print what README shows."""

import re
import shlex
from pathlib import Path

from memotrs.cli import main

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


def masked(text: str) -> str:
    """text with the wall times blanked: the `wall ms:` line of a run
    report and the last column (wall_ns) of bench's CSV rows."""
    text = re.sub(r"^wall ms: .*$", "wall ms: *", text, flags=re.M)
    return re.sub(r"^(\w+,(?:[^,\n]*,){5})\d+$", r"\1*", text, flags=re.M)


def test_cli_examples(monkeypatch, capsys):
    """Each README block of `$ memotrs ...` sessions, and the compile
    example, runs through cli.main and prints (stdout, then stderr) what
    README shows; `$ echo $?` shows the exit code of the command before."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```\n(.*?)```", text, re.S)
    sessions = [b for b in blocks if b.startswith("$ memotrs ")]
    compiled = re.search(r"`memotrs compile programs/add.grsr` prints .*?```\n(.*?)```",
                         text, re.S).group(1)
    sessions.append("$ memotrs compile programs/add.grsr\n" + compiled)
    assert len(sessions) == 5
    monkeypatch.chdir(ROOT)  # the examples name programs/ by a relative path
    for session in sessions:
        code = None
        for command in re.split(r"^\$ ", session, flags=re.M)[1:]:
            line, _, shown = command.partition("\n")
            if line == "echo $?":
                got = f"{code}\n"
            else:
                argv = shlex.split(line)
                assert argv[0] == "memotrs", line
                code = main(argv[1:])
                out, err = capsys.readouterr()
                got = out + err
            assert masked(got) == masked(shown), line
