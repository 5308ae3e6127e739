"""The benchmark's traced run (`bench/run.py --trace 1`) reaches the layers
through the names `bench/tracing.py` patches, and reads the counts it needs."""

import importlib.util
from pathlib import Path

from memotrs import cli, smallstep

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_sees_the_machine(capsys):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        root = tracer.open("cli.main")
        code = cli.main(["run", str(ROOT / "programs" / "rabbits.trs"), "rabbits(suc^6(zero))"])
        tracer.close(root)
    finally:
        tracer.restore()
    assert code == 0
    assert cli.run is smallstep.run  # restored
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "smallstep.load", "smallstep.run"} <= names
    # every merge of the run added a node, and the heap it was given kept its size
    assert tracer.counts["heap.growth"] == tracer.counts["heap.merges"] == 10
    assert tracer.counts["smallstep.steps"] == 35
    capsys.readouterr()
