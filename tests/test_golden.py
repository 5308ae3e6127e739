"""CLI jobs on the shipped programs whose output is pinned in tests/data/.

Each job's record is its exit code, its stdout with every `wall ms:` line
and the bench `wall_ns` column removed, its stderr, and the bytes of its
--trace and --dot files. A change to the engines may make them faster; it
may not change one of these bytes.

    PYTHONPATH=src python tests/test_golden.py

rewrites tests/data/ from the checkout it runs in.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from memotrs.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
FILES = {"{trace}": "trace.csv", "{dot}": "dot"}

# name -> argv; program paths are relative to the repository root
JOBS = {
    "add_shared": ["run", "programs/add.trs", "add(suc^3(zero), suc^2(zero))",
                   "--trace", "{trace}", "--dot", "{dot}"],
    "rabbits_shared": ["run", "programs/rabbits.trs", "rabbits(suc^12(zero))",
                       "--trace", "{trace}", "--dot", "{dot}"],
    "tree_memo": ["run", "programs/tree.trs", "tree(suc^10(zero))", "--engine", "memo",
                  "--depth-cap", "3"],
    "rabbits_naive": ["run", "programs/rabbits.trs", "rabbits(suc^8(zero))",
                      "--engine", "naive"],
    "leafs_check_all": ["run", "programs/leafs.trs",
                        "leafs(m(n(leafm), m(leafn, n(m(leafm, leafn)))))",
                        "--check-all", "--trace", "{trace}", "--dot", "{dot}"],
    "tree_check_all": ["run", "programs/tree.trs", "tree(suc^12(zero))", "--check-all",
                       "--depth-cap", "4"],
    "tree_depth_cap": ["run", "programs/tree.trs", "tree(suc^70(zero))", "--depth-cap", "3"],
    "id_shared": ["run", "programs/id.trs", "id(suc^5(zero))", "--trace", "{trace}"],
    "bench_rabbits": ["bench", "programs/rabbits.trs", "rabbits",
                      "--engine", "naive,memo,shared", "--range", "0..10", "--budget", "2000"],
    "bench_add": ["bench", "programs/add.trs", "--template", "add(suc^{n}(zero), suc(zero))",
                  "--engine", "naive,memo,shared", "--range", "1..6"],
    "budget_shared": ["run", "programs/rabbits.trs", "rabbits(suc^20(zero))",
                      "--budget", "50", "--trace", "{trace}"],
    "budget_naive": ["run", "programs/rabbits.trs", "rabbits(suc^15(zero))",
                     "--engine", "naive", "--budget", "1000"],
    "stuck_shared": ["run", "programs/leafs.trs", "leafs(m(n(leafn), suc(zero)))",
                     "--trace", "{trace}"],
    "stuck_naive": ["run", "programs/leafs.trs", "leafs(m(n(leafn), suc(zero)))",
                    "--engine", "naive"],
    "stuck_memo": ["run", "programs/leafs.trs", "add(leafs(leafm), leafn)",
                   "--engine", "memo"],
}


def record(name: str, tmp: Path) -> dict[str, bytes]:
    """The job's pinned files: name.out, and name.<kind> per output file."""
    files = {flag: tmp / f"{name}.{kind}" for flag, kind in FILES.items()}
    argv = [str(files.get(a, a)) for a in JOBS[name]]
    argv[1] = str(ROOT / argv[1])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = [l for l in out.getvalue().splitlines(True) if not l.startswith("wall ms:")]
    if argv[0] == "bench":
        lines = [l.rsplit(",", 1)[0] + "\n" for l in lines]
    text = f"exit: {code}\n--- stdout\n{''.join(lines)}--- stderr\n{err.getvalue()}"
    pinned = {f"{name}.out": text.encode()}
    for path in files.values():
        if path.exists():
            pinned[path.name] = path.read_bytes()
    return pinned


@pytest.mark.parametrize("name", sorted(JOBS))
def test_cli_output_matches_golden_files(name, tmp_path):
    got = record(name, tmp_path)
    want = {p.name: p.read_bytes() for p in DATA.glob(f"{name}.*")}
    assert sorted(got) == sorted(want)
    for file, data in want.items():
        assert got[file] == data, file


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for old in DATA.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name in JOBS:
            for file, data in record(name, Path(tmp)).items():
                (DATA / file).write_bytes(data)
    sys.exit(0)
