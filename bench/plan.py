"""Build one workload's job list and what each job must print.

    python3 bench/plan.py --workload NAME --seed N --work DIR

Runs in its own process, apart from the process that runs memotrs, so the
reference evaluator's memory does not count in the workload's peak RSS.
It imports nothing from memotrs. DIR must already hold the compiled
corpus programs listed in DIR/compiled.json; generated programs are
written there too. Prints one JSON object: {"jobs": [...], "errors": [...]}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from reference import (
    Evaluator,
    RefProgram,
    Store,
    check_compiled,
    suc,
)
from workloads import WORKLOADS


def rabbit_tree(n: int) -> list:
    """Genealogical rabbit tree n by its recurrence, as a value encoding."""
    if n == 0:
        return ["leafn"]
    adults, babies = ["leafm"], ["leafn"]
    for _ in range(n - 1):
        adults, babies = ["m", adults, babies], ["n", adults]
    return babies


# def name -> (counterpart program, its operation, inputs); None: constant
COUNTERPARTS = {
    "add": ("programs/add.trs", "add",
            [[suc(a), suc(b)] for a in range(4) for b in range(4)]),
    "tree": ("programs/tree.trs", "tree", [[suc(n)] for n in range(6)]),
    "adults": ("programs/rabbits.trs", "adults", [[suc(n)] for n in range(9)]),
    "babies": ("programs/rabbits.trs", "babies", [[suc(n)] for n in range(9)]),
    "rabbits": ("programs/rabbits.trs", "rabbits", [[suc(n)] for n in range(9)]),
    "leafs": ("programs/leafs.trs", "leafs", [[rabbit_tree(n)] for n in range(7)]),
    "one": (None, None, [[]]),
}


class Planner:
    def __init__(self):
        self.programs: dict[str, Evaluator] = {}

    def evaluator(self, path: str) -> Evaluator:
        ev = self.programs.get(path)
        if ev is None:
            ev = Evaluator(RefProgram(Path(path).read_text()), Store())
            self.programs[path] = ev
        return ev

    def costs(self, path: str, op: str, arg_specs: list) -> dict[str, int]:
        """The m that memo/shared and naive runs of op(args) print."""
        ev = self.evaluator(path)
        args = tuple(ev.store.value(a) for a in arg_specs)
        ev.call(op, args)
        return {"m": ev.m(op, args), "m_naive": ev.m_naive(op, args)}

    def outcome(self, path: str, op: str, arg_specs: list, depth_cap: int) -> dict:
        ev = self.evaluator(path)
        st = ev.store
        args = tuple(st.value(a) for a in arg_specs)
        v = ev.call(op, args)
        text = st.render(v, depth_cap)
        return {
            "value_sha": hashlib.sha256(text.encode()).hexdigest(),
            "dag": st.dag_nodes(v),
            "unfolded": st.unfolded_size(v),
            "m": ev.m(op, args),
            "m_naive": ev.m_naive(op, args),
        }

    def expect(self, job: dict, compiled: dict) -> dict:
        kind = job["kind"]
        if kind == "run":
            out = self.outcome(job["path"], job["op"], job["args"], job["depth_cap"])
            reports = []
            for eng in job["engines"]:
                m = out["m_naive"] if eng == "naive" else out["m"]
                reports.append({"engine": eng, "m": m, "dag": out["dag"],
                                "unfolded": out["unfolded"],
                                "value_sha": out["value_sha"]})
            return {"rc": 0, "reports": reports}
        if kind == "bench":
            rows = []
            lo, hi = job["range"]
            for n in range(lo, hi + 1):
                args = [suc(n), suc(n)] if job["binary"] else [suc(n)]
                out = self.outcome(job["path"], job["op"], args, 1)
                for eng in job["engines"]:
                    m = out["m_naive"] if eng == "naive" else out["m"]
                    rows.append([eng, n, m, out["dag"], out["unfolded"]])
            return {"rc": 0, "rows": rows}
        if kind == "check":
            return {"rc": 1 if job["defect"] else 0, "category": job["defect"]}
        if kind == "tier":
            return {"rc": 0}
        text = compiled["texts"][job["artifact"]]
        return {"rc": 0, "stdout_sha": hashlib.sha256(text.encode()).hexdigest(),
                "error": compiled["errors"].get(job["artifact"])}


def verify_compiled(work: Path) -> dict:
    """Check every compiled corpus program against its hand-written
    counterpart; returns the texts and any error per artifact."""
    info = json.loads((work / "compiled.json").read_text())
    texts, errors = {}, {}
    for key, (entry, path) in info["artifacts"].items():
        text = Path(path).read_text()
        texts[key] = text
        cp_path, cp_op, inputs = COUNTERPARTS[entry]
        counterpart = RefProgram(Path(cp_path).read_text()) if cp_path else None
        why = check_compiled(text, entry, counterpart, cp_op, inputs,
                             constant=["suc", ["zero"]])
        if why is not None:
            errors[key] = why
    return {"texts": texts, "errors": errors, **info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    work = Path(args.work)
    compiled = verify_compiled(work)
    rng = random.Random(f"{args.workload}:{args.seed}")
    planner = Planner()
    jobs = WORKLOADS[args.workload](rng, work, compiled, planner.costs)
    for job in jobs:
        job["expect"] = planner.expect(job, compiled)
    errors = [f"compile {k}: {v}" for k, v in sorted(compiled["errors"].items())]
    json.dump({"jobs": jobs, "errors": errors}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
