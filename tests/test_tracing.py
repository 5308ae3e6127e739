"""The benchmark's traced run (`bench/run.py --trace 1`) reaches the layers
through the names `bench/tracing.py` patches, and reads the counts it needs."""

import importlib.util
from pathlib import Path

from memotrs import App, cli, parser, smallstep

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(argv):
    """Run the CLI under a tracer, as the benchmark's traced rounds do."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        root = tracer.open("cli.main")
        code = cli.main(argv)
        tracer.close(root)
    finally:
        tracer.restore()
    assert code == 0
    return tracer


def test_traced_run_sees_the_machine(capsys):
    tracer = traced_run(["run", str(ROOT / "programs" / "rabbits.trs"), "rabbits(suc^6(zero))"])
    assert cli.run is smallstep.run  # restored
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "smallstep.load", "smallstep.run"} <= names
    # every merge of the run added a node, and the heap it was given kept its size
    assert tracer.counts["heap.growth"] == tracer.counts["heap.merges"] == 10
    assert tracer.counts["smallstep.steps"] == 35
    capsys.readouterr()


def test_shared_run_loads_the_text_and_term_engines_load_it_once(monkeypatch, capsys):
    """Each input's text is loaded once for the shared engine
    (initial_expression) and once more for both term engines together
    (load_term without a heap); parse_term is never called."""
    loads = []

    def counted(name, fn, at):
        def wrapper(*args, **kwargs):
            loads.append((name, args[at]))
            return fn(*args, **kwargs)
        return wrapper

    def refused(*args, **kwargs):
        raise AssertionError("parse_term was called")

    monkeypatch.setattr(cli, "load_term", counted("term", cli.load_term, 0))
    monkeypatch.setattr(cli, "initial_expression", counted("shared", cli.initial_expression, 2))
    monkeypatch.setattr(parser, "parse_term", refused)
    monkeypatch.setattr(cli, "parse_term", refused)
    rabbits = ["run", str(ROOT / "programs" / "rabbits.trs"), "rabbits(suc^6(zero))"]
    text = rabbits[-1]
    cases = [
        (rabbits, [("shared", text)]),
        (rabbits + ["--engine", "memo"], [("term", text)]),
        (rabbits + ["--check-all"], [("shared", text), ("term", text)]),
        (["bench", rabbits[1], "rabbits", "--engine", "naive,memo,shared", "--range", "5..6"],
         [("term", "rabbits(suc^5(zero))"), ("shared", "rabbits(suc^5(zero))"),
          ("term", "rabbits(suc^6(zero))"), ("shared", "rabbits(suc^6(zero))")]),
        # a shared engine listed twice runs from the text both times
        (["bench", rabbits[1], "rabbits", "--engine", "shared,memo,shared", "--range", "4..4"],
         [("term", "rabbits(suc^4(zero))"), ("shared", "rabbits(suc^4(zero))"),
          ("shared", "rabbits(suc^4(zero))")]),
    ]
    for argv, want in cases:
        loads.clear()
        names = [span[0] for span in traced_run(argv).spans]
        assert loads == want, argv
        assert names.count("smallstep.load") == [n for n, _ in want].count("shared")
        assert "parser.parse_term" not in names
    capsys.readouterr()


def test_traced_check_all_sees_both_term_engines(capsys):
    tracer = traced_run(["run", "--check-all", str(ROOT / "programs" / "rabbits.trs"),
                         "rabbits(suc^6(zero))"])
    names = {span[0] for span in tracer.spans}
    assert {"bigstep.memo", "bigstep.naive"} <= names
    assert tracer.counts["bigstep.memo_work"] == 35
    assert tracer.counts["bigstep.naive_inferences"] == 115
    capsys.readouterr()


def test_shared_answer_is_read_without_unfolding(capsys, tmp_path):
    rabbits = ["run", str(ROOT / "programs" / "rabbits.trs"), "rabbits(suc^6(zero))"]

    def span_names(argv):
        return [span[0] for span in traced_run(argv).spans]

    # the answer is counted, sized, drawn and printed where it lies; with
    # --check-all the term engines' values denote it, and their reports
    # read it there too, so it is printed once and no term is numbered
    for flags, drawn in (([], 0), (["--dot", str(tmp_path / "a.dot")], 1), (["--check-all"], 0)):
        names = span_names(rabbits + flags)
        for name in ("heap.reachable_count", "heap.unfolded_size", "parser.format_term"):
            assert names.count(name) == 1
        assert names.count("heap.to_dot") == drawn
        assert "heap.unfold" not in names
        assert "terms.minimal_shared_size" not in names
    capsys.readouterr()


def test_a_disagreeing_answer_is_read_as_a_term(monkeypatch, capsys):
    right = cli.eval_memo

    def skewed(*args, **kwargs):
        out = right(*args, **kwargs)
        out.value = App("leafn", ())
        return out

    monkeypatch.setattr(cli, "eval_memo", skewed)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--check-all", str(ROOT / "programs" / "rabbits.trs"),
                         "rabbits(suc^6(zero))"])
    finally:
        tracer.restore()
    assert code == 1
    names = [span[0] for span in tracer.spans]
    assert names.count("terms.minimal_shared_size") == 1
    assert names.count("parser.format_term") == 2
    assert capsys.readouterr().out.endswith("DISAGREEMENT: memo and shared values differ\n")


def test_traced_tier_sees_each_tier_entry_point(capsys, tmp_path):
    # add is annotated, one has signatures, leafs without its annotation none
    text = (ROOT / "programs" / "leafs.grsr").read_text()
    unannotated = tmp_path / "leafs.grsr"
    unannotated.write_text(text.replace("def leafs : R@1 -> N@1 =", "def leafs ="))
    names = {span[0] for span in traced_run(["tier", str(unannotated)]).spans}
    assert {"grsr.check_tiers", "grsr.infer_tiers", "grsr.infeasibility_reason",
            "grsr.default_tier_bound"} <= names
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" up to")[0] for line in lines] == [
        "add: accepted (2, 1) -> 1", "one: signatures", "leafs: no signatures"]
