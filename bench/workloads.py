"""Seeded job lists for the four workloads.

A job is one `memotrs` CLI invocation. Every list is built from the
workload seed alone and holds at least 100 distinct jobs, so a p90 over
jobs has 10 samples beyond it. Sizes are stratified, not drawn
independently: each program's sizes cover its range in evenly spaced
strata, with a seeded point inside each stratum. Two seeds thus give
different inputs with the same spread of job costs, so medians and tails
compare across seeds.

Programs that the benchmark generates are written under the output
directory; memotrs only ever sees their text and the command lines.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Callable, Optional

from reference import render_spec, suc

CORPUS_GRSR = ("add", "tree", "rabbits", "leafs")

# Tier signatures the corpus definitions admit (None: no signature at all,
# as the comment in leafs.grsr explains). An unannotated def must list its
# entry among the inferred signatures.
KNOWN_TIERS = {
    "add": "(2, 1) -> 1",
    "tree": "(1) -> 0",
    "adults": "(1) -> 0",
    "babies": "(1) -> 0",
    "rabbits": "(1) -> 0",
    "one": "() -> 0",
    "leafs": None,
}

_ANNOTATION_RE = re.compile(r"^(def\s+[A-Za-z_][A-Za-z0-9_]*)\s*:[^=]*=", re.M)


def strip_annotations(text: str) -> str:
    return _ANNOTATION_RE.sub(r"\1 =", text)


def strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count sizes in [lo, hi], one per equal-width stratum, ascending."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def every_fifth(i: int) -> bool:
    return i % 5 == 2


class Jobs:
    def __init__(self):
        self.jobs: list[dict] = []

    def add(self, kind: str, program: str, size: int, argv: list[str], **extra) -> None:
        flags = " ".join(a for a in argv if a.startswith("--"))
        self.jobs.append(
            {"kind": kind, "program": program, "size": size, "flags": flags,
             "argv": argv, **extra}
        )

    def run(self, program: str, path: str, op: str, args: list, size: int,
            flags: list[str], depth_cap: int = 16) -> None:
        term = op + "(" + ", ".join(render_spec(a) for a in args) + ")"
        engines = ["shared", "memo", "naive"] if "--check-all" in flags else None
        if engines is None:
            engines = [flags[flags.index("--engine") + 1]] if "--engine" in flags else ["shared"]
        self.add("run", program, size, ["run", path, term, *flags],
                 path=path, op=op, args=args, engines=engines, depth_cap=depth_cap)

    def shuffled(self, rng: random.Random) -> list[dict]:
        rng.shuffle(self.jobs)
        for i, job in enumerate(self.jobs):
            job["id"] = i
        return self.jobs


# ------------------------------------------------------------ deep_eval


def family_text(k: int, p: int) -> str:
    """A rabbits-like family: k mutually recursive unary operations over N.

    f0 builds a binary node from f{p} and f1; every other operation wraps a
    call of the next one (f_{k-1} calls f0) in a unary node. All k
    operations are reached once per level, so m is about k times n. Binary
    nodes never stack without a unary node or a shrinking argument between
    them, which keeps answers narrow (at most Fibonacci-like growth)."""
    rules = ["  f0(zero) -> l0 ;", f"  f0(suc(x)) -> b(f{p}(x), f1(x)) ;"]
    for i in range(1, k):
        rules.append(f"  f{i}(zero) -> l{i} ;")
        rules.append(f"  f{i}(suc(x)) -> u(f{(i + 1) % k}(x)) ;")
    leaves = ", ".join(f"l{i}/0" for i in range(k))
    return (
        f"constructors: zero/0, suc/1, {leaves}, u/1, b/2 ;\n"
        f"operations: {', '.join(f'f{i}/1' for i in range(k))} ;\n"
        "rules:\n" + "\n".join(rules) + "\n"
    )


# the six families as (k, p): every k from 2 to 4 with every left child
# f{p} it admits; fixed, so that two seeds weigh the same programs and only
# sizes and order follow the seed
FAMILIES = ((2, 0), (3, 0), (3, 2), (4, 0), (4, 2), (4, 3))


def deep_eval(rng: random.Random, out: Path, compiled: dict, measure: Callable) -> list[dict]:
    jobs = Jobs()
    fam_paths = []
    for i, (k, p) in enumerate(FAMILIES):
        path = out / f"family{i}.trs"
        path.write_text(family_text(k, p))
        fam_paths.append(str(path))
    groups = [
        ("rabbits", "programs/rabbits.trs", "rabbits", 1, 25),
        ("add", "programs/add.trs", "add", 2, 25),
        ("compiled:rabbits", compiled["rabbits"], "rabbits", 1, 10),
        ("compiled:add", compiled["add"], "add", 2, 10),
        ("family", None, "f0", 1, 30),
    ]
    for label, path, op, arity, count in groups:
        for i, n in enumerate(strata(rng, count, 300, 1500)):
            flags = ["--trace", "{trace}"] if every_fifth(i) else []
            args = [suc(n)] if arity == 1 else [suc(n), suc(rng.randint(0, 100))]
            if path is None:
                fam = i % len(fam_paths)
                jobs.run(f"family{fam}", fam_paths[fam], op, args, n, flags)
            else:
                jobs.run(label, path, op, args, n, flags)
    return jobs.shuffled(rng)


# ---------------------------------------------------------- wide_answers


def wide_answers(rng: random.Random, out: Path, compiled: dict, measure: Callable) -> list[dict]:
    """A job's cost is evaluation, which grows with n, plus readback, which
    doubles per --depth-cap level. The sizes fall in bands of neighbouring
    strata, and each band gives every cap one size in a seeded order, so
    every seed pairs each cap with sizes from the whole range and two seeds
    weigh the same mix of costs."""
    jobs = Jobs()
    caps = range(8, 17)
    for label, bands in (("tree", 7), ("rabbits", 5)):
        sizes = strata(rng, bands * len(caps), 100, 1000)
        for band in range(bands):
            order = list(caps)
            rng.shuffle(order)
            for j, cap in enumerate(order):
                n = sizes[band * len(caps) + j]
                # --dot on every fifth (cap, band) pair, so dot jobs span the caps
                dot = every_fifth((cap - caps.start) * bands + band)
                flags = ["--depth-cap", str(cap)] + (["--dot", "{dot}"] if dot else [])
                jobs.run(label, f"programs/{label}.trs", label, [suc(n)], n, flags,
                         depth_cap=cap)
    return jobs.shuffled(rng)


# --------------------------------------------------------- three_engines


def three_engines(rng: random.Random, out: Path, compiled: dict, measure: Callable) -> list[dict]:
    """Naive evaluation costs grow exponentially in n for rabbits and tree,
    so those sizes sweep their whole range once and the seed only orders
    them; a stratum a size wide would still move medians by the growth
    factor. add costs grow polynomially; its `run --check-all` inputs are
    stratified. Its bench windows sweep 20-100 in fixed steps: they make up
    the tail around p90, where a seeded size moved p90 by 0.09 between
    seeds, more than the rest of the workload. Sizes stop
    where a pass over the list still leaves time for five or more repeats
    of every job in a run."""
    jobs = Jobs()
    for n in range(6, 18):
        jobs.run("rabbits", "programs/rabbits.trs", "rabbits", [suc(n)], n, ["--check-all"])
    # tree n = 12 and 13 reach the slow minimal_shared_size path on the
    # naive engine's unshared answer; they stay in on purpose
    for n in range(4, 14):
        jobs.run("tree", "programs/tree.trs", "tree", [suc(n)], n, ["--check-all"])
    for a, b in zip(strata(rng, 40, 20, 120), strata(rng, 40, 0, 120)):
        jobs.run("add", "programs/add.trs", "add", [suc(a), suc(b)], a, ["--check-all"])
    benches = [
        ("rabbits", range(7, 16), None),
        ("tree", range(5, 12), None),
        ("add", [20 + 80 * i // 21 for i in range(22)], "add(suc^{n}(zero), suc^{n}(zero))"),
    ]
    for label, tops, template in benches:
        for top in tops:
            argv = ["bench", f"programs/{label}.trs"]
            argv += ["--template", template] if template else [label]
            argv += ["--engine", "naive,memo,shared", "--range", f"{top - 1}..{top}"]
            jobs.add("bench", label, top, argv, path=f"programs/{label}.trs",
                     op=label, range=[top - 1, top], binary=template is not None,
                     engines=["naive", "memo", "shared"])
    return jobs.shuffled(rng)


# ------------------------------------------------------------ many_small


def random_program(rng: random.Random) -> tuple[dict, dict, list]:
    """An orthogonal program in the style of the test suite's generator:
    every operation splits its first argument over all constructors, and
    recursive calls only receive pattern subvariables first, so every
    evaluation terminates."""
    cons = {"a": 0}
    if rng.random() < 0.85:
        cons["b"] = 1
    if rng.random() < 0.65:
        cons["c"] = 2
    if rng.random() < 0.3:
        cons["d"] = 0
    op_names = ["f", "g", "h"][: rng.randint(1, 3)]
    ops = {name: rng.randint(1, 2) for name in op_names}
    nullary = sorted(c for c, k in cons.items() if k == 0)

    def rhs(depth: int, recursers: list[str], passthru: list[str]) -> str:
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if passthru and rng.random() < 0.6:
                return rng.choice(passthru)
            return rng.choice(nullary)
        if roll < 0.55 and recursers:
            op = rng.choice(op_names)
            rest = [rhs(depth - 1, recursers, passthru) for _ in range(ops[op] - 1)]
            return f"{op}({', '.join([rng.choice(recursers), *rest])})"
        con = rng.choice(sorted(cons))
        if cons[con] == 0:
            return con
        kids = [rhs(depth - 1, recursers, passthru) for _ in range(cons[con])]
        return f"{con}({', '.join(kids)})"

    rules = []
    for op, arity in ops.items():
        extra = [f"x{i}" for i in range(2, arity + 1)]
        for con in sorted(cons):
            ys = [f"y{i}" for i in range(1, cons[con] + 1)]
            pat = f"{con}({', '.join(ys)})" if ys else con
            lhs = f"{op}({', '.join([pat, *extra])})"
            rules.append(f"{lhs} -> {rhs(2, ys, ys + extra)}")
    return cons, ops, rules


def program_text(cons: dict, ops: dict, rules: list[str]) -> str:
    decl = lambda d: ", ".join(f"{s}/{k}" for s, k in d.items())  # noqa: E731
    return (f"constructors: {decl(cons)} ;\noperations: {decl(ops)} ;\nrules:\n"
            + "".join(f"  {r} ;\n" for r in rules))


def random_value(rng: random.Random, cons: dict, depth: int) -> list:
    if depth <= 0:
        return [rng.choice(sorted(c for c, k in cons.items() if k == 0))]
    con = rng.choice(sorted(cons))
    return [con, *(random_value(rng, cons, depth - 1) for _ in range(cons[con]))]


# one injected defect per check-only program, with the diagnostic category
# `memotrs check` must report for it
DEFECTS = ("ambiguity", "linearity", "scope", "ambiguity")


def inject(defect: str, cons: dict, ops: dict, rules: list[str]) -> None:
    if defect == "ambiguity":
        op = sorted(ops)[0]
        extra = [f"x{i}" for i in range(2, ops[op] + 1)]
        rules.append(f"{op}({', '.join(['z', *extra])}) -> a")
    elif defect == "linearity":
        ops["dup"] = 2
        rules.append("dup(x, x) -> x")
    else:
        ops["free"] = 1
        rules.append("free(x) -> unbound")


def many_small(rng: random.Random, out: Path, compiled: dict, measure: Callable) -> list[dict]:
    jobs = Jobs()
    valid = []
    for i in range(12):
        cons, ops, rules = random_program(rng)
        path = out / f"gen{i}.trs"
        path.write_text(program_text(cons, ops, rules))
        valid.append((str(path), cons, ops))
    defective = []
    for i, defect in enumerate(DEFECTS):
        cons, ops, rules = random_program(rng)
        inject(defect, cons, ops, rules)
        path = out / f"defect{i}.trs"
        path.write_text(program_text(cons, ops, rules))
        defective.append((str(path), defect))
    checks = [(p, None) for p, _, _ in valid] + defective
    for i in range(40):
        path, defect = checks[i % len(checks)]
        jobs.add("check", Path(path).stem, 0, ["check", path], defect=defect)
    engine_flags = (["--engine", "shared"], ["--engine", "memo"],
                    ["--engine", "naive"], ["--check-all"])
    # the m each job prints follows a fixed cycle, so every seed's run jobs
    # do the same work; a program that cannot reach the target hands the
    # job to the next one
    for i in range(80):
        flags = engine_flags[i % 4]
        target = 1 + (i // 4) % 3
        best = None
        for attempt in range(60):
            path, cons, ops = valid[(i + attempt // 5) % len(valid)]
            op = sorted(ops)[i % len(ops)]
            args = [random_value(rng, cons, rng.randint(1, 3)) for _ in range(ops[op])]
            m = measure(path, op, args)["m_naive" if "naive" in flags else "m"]
            if best is None or abs(m - target) < abs(best[0] - target):
                best = (m, path, op, args)
            if m == target:
                break
        m, path, op, args = best
        jobs.run(Path(path).stem, path, op, args, m, list(flags))
    variants = [(name, bare) for name in CORPUS_GRSR for bare in (False, True)]
    for i in range(40):
        name, bare = variants[i % len(variants)]
        path = grsr_path(out, name, bare)
        tmax = (None, 2, 3, 4)[(i // len(variants)) % 4]
        argv = ["tier", path] + (["--tmax", str(tmax)] if tmax is not None else [])
        jobs.add("tier", name + ("_bare" if bare else ""), 0, argv, grsr=path, tmax=tmax)
    for i in range(40):
        name, bare = variants[i % len(variants)]
        path = grsr_path(out, name, bare)
        entries = [None, *compiled["defs"][name]]
        entry = entries[(i // len(variants)) % len(entries)]
        argv = ["compile", path] + (["--entry", entry] if entry else [])
        jobs.add("compile", name + ("_bare" if bare else ""), 0, argv,
                 artifact=compiled_key(name, bare, entry))
    return jobs.shuffled(rng)


def grsr_path(out: Path, name: str, bare: bool) -> str:
    return str(out / f"{name}_bare.grsr") if bare else f"programs/{name}.grsr"


def compiled_key(name: str, bare: bool, entry: Optional[str]) -> str:
    return f"{name}{'_bare' if bare else ''}-{entry or 'default'}"


WORKLOADS = {
    "deep_eval": deep_eval,
    "wide_answers": wide_answers,
    "three_engines": three_engines,
    "many_small": many_small,
}
