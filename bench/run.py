"""The memotrs benchmark: one workload, end to end through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it works in the checkout's root and
writes only under .bench_out/ there. Workloads (see workloads.py and
BENCHMARK.json): deep_eval, wide_answers, three_engines, many_small.

Load model: one client in a closed loop in this process. A job is one
`memotrs.cli.main(argv)` call with stdout captured; the next job starts
when the previous one returns. The job list (at least 100 distinct jobs)
runs in rounds, each in a fresh seeded order, until S seconds have passed.

Times are in reference units (probe.py): a fixed probe runs right before
and right after each job, and the job's wall time is scaled by the
probe's reference time over the mean of the two probe times. On a shared
virtual machine the host's speed changes by up to 2x from one second to
the next; the probe moves with it and a change to memotrs does not. A
job's time is the median of its repeats' reference times. Loop time is
the summed reference time of every job run in the whole rounds; probing,
checking outputs and collecting garbage between jobs is not in it. The
same figures from plain wall times go to the results file.

Every job's output is checked against an independent reference (see
reference.py and plan.py); a failing job counts in `failed`. Each job's
output, with wall times removed, plus its --trace and --dot file bytes, is
hashed; a repeat of a job must hash the same, and the hashes of one pass,
in job order, make the workload's determinism digest.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds that record spans around the layer entry points
(tracing.py) for S seconds, requires every traced job to hash as it did
untraced, and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Full results,
per-job rows and spans go to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import check_tier_output, grsr_defs
from probe import REF_PROBE_NS, probe_ns
from tracing import Tracer, layer_metrics
from workloads import CORPUS_GRSR, KNOWN_TIERS, WORKLOADS, compiled_key, strip_annotations

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = ['bench', 'src']\n"
    "from probe import probe_ns\n"
    "probe_ns(), probe_ns()\n"
    "p = probe_ns()\n"
    "t = time.perf_counter_ns()\n"
    "import memotrs, memotrs.cli\n"
    "t = time.perf_counter_ns() - t\n"
    "p += probe_ns()\n"
    "print(t, p, memotrs.__file__)\n"
)
REQUIRED = ["src/memotrs/cli.py", "BENCHMARK.json"] + [
    f"programs/{name}.{ext}" for name in CORPUS_GRSR for ext in ("trs", "grsr")
]


DIFFERS = "output differs from the job's first run"


class BenchError(Exception):
    pass


def measure_setup() -> tuple[float, list[list[float]]]:
    """Median time to import memotrs and memotrs.cli in a fresh interpreter,
    in reference seconds (see probe.py), with each import's wall and
    reference seconds. The interpreter runs the probe right before and
    right after the import.

    The first import also writes bytecode caches and is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing memotrs failed:\n{proc.stderr}")
        import_ns, probes_ns, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"memotrs was imported from {path}, not from src/")
        if i:
            wall = int(import_ns) / 1e9
            times.append([wall, wall * 2 * REF_PROBE_NS / int(probes_ns)])
    return statistics.median(ref for _, ref in times), times


def header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sha = None
    if Path(".git").exists():  # a bare source tree may sit inside another repo
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
    sources = sorted(Path("src/memotrs").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in sources:
        data = p.read_bytes()
        digest.update(p.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client, in-process memotrs.cli.main",
    }


def capture(main, argv: list[str]) -> tuple[object, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, buf.getvalue()


def prepare(work: Path, main) -> None:
    """Write unannotated copies of the corpus .grsr files, compile every
    (file, entry) pair once, and record them in work/compiled.json."""
    artifacts, defs = {}, {}
    (work / "compiled").mkdir(parents=True)
    for name in CORPUS_GRSR:
        text = Path(f"programs/{name}.grsr").read_text()
        (work / f"{name}_bare.grsr").write_text(strip_annotations(text))
        names = [d for d, _ in grsr_defs(text)]
        defs[name] = names
        for bare in (False, True):
            src = str(work / f"{name}_bare.grsr") if bare else f"programs/{name}.grsr"
            for entry in (None, *names):
                key = compiled_key(name, bare, entry)
                rc, out = capture(main, ["compile", src] + (["--entry", entry] if entry else []))
                if rc != 0:
                    raise BenchError(f"compile {key} exited {rc}")
                path = work / "compiled" / f"{key}.trs"
                path.write_text(out)
                artifacts[key] = [entry or names[-1], str(path)]
    info = {"artifacts": artifacts, "defs": defs,
            "rabbits": artifacts[compiled_key("rabbits", False, None)][1],
            "add": artifacts[compiled_key("add", False, None)][1]}
    (work / "compiled.json").write_text(json.dumps(info))


def plan(workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("plan.py")), "--workload", workload,
         "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"planning failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _normalize(kind: str, text: str) -> str:
    if kind == "run":
        return "".join(l for l in text.splitlines(True) if not l.startswith("wall ms: "))
    if kind == "bench":
        return "".join(l.rsplit(",", 1)[0] + "\n" for l in text.splitlines())
    return text


def _fields(block: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in block.splitlines() if ": " in line)


def _check_trace(data: bytes | None, report: dict[str, str]) -> str | None:
    """A step trace must hold one row per machine step, one `apply` row per
    unit of m, and end at the printed heap and cache sizes."""
    if data is None:
        return "missing"
    lines = data.decode().splitlines()
    if lines[0] != "step,kind,weight,heap_size,cache_size":
        return f"header {lines[0]!r}"
    rows = [l.split(",") for l in lines[1:]]
    if [r[0] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        return "steps are not numbered 1..n"
    if str(len(rows)) != report["total steps"]:
        return f"{len(rows)} rows for {report['total steps']} steps"
    applies = sum(1 for r in rows if r[1] == "apply")
    if str(applies) != report["m"]:
        return f"{applies} apply rows for m = {report['m']}"
    if rows[-1][3:] != [report["heap size"], report["cache size"]]:
        return f"last row {','.join(rows[-1])} disagrees with the heap and cache sizes"
    return None


class Runner:
    """Runs jobs through memotrs.cli.main and checks what they print."""

    def __init__(self, main, work: Path):
        self.main = main
        self.files = {"{trace}": str(work / "trace.csv"), "{dot}": str(work / "answer.dot")}
        self.first: dict[int, tuple] = {}  # job id -> (digest, problem, m, steps)
        self.grsr_texts: dict[str, str] = {}

    def execute(self, job: dict, tracer: Tracer | None = None) -> tuple:
        """Returns (job id, reference ns, problem or None, m, wall ns)."""
        argv = [self.files.get(a, a) for a in job["argv"]]
        for a, p in self.files.items():
            if a in job["argv"]:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(p)
        out, err = io.StringIO(), io.StringIO()
        crash = None
        # each job starts with empty collector generations, as a fresh CLI
        # process would, instead of inheriting counts from the job before
        gc.collect()
        before = probe_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.job = job["id"]
                root = tracer.open("cli.main")
            t0 = time.perf_counter_ns()
            try:
                rc = self.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                rc, crash = None, traceback.format_exc()
            ns = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.close(root)
        ref = ns * 2 * REF_PROBE_NS / (before + probe_ns())
        files = {a: Path(p).read_bytes() if os.path.exists(p) else None
                 for a, p in self.files.items() if a in job["argv"]}
        if tracer is not None and files.get("{trace}"):
            tracer.counts["smallstep.trace_bytes"] += len(files["{trace}"])
        text = out.getvalue()
        digest = hashlib.sha256(
            f"{rc}\n{_normalize(job['kind'], text)}".encode()
            + b"".join(b"\0" + (data or b"(missing)") for data in files.values())
        ).hexdigest()
        first = self.first.get(job["id"])
        if first is None:
            problem, m, steps = self.check(job, rc, text, files)
            if crash is not None:
                problem = f"raised:\n{crash}"
            elif problem is not None and err.getvalue():
                problem += f"; stderr: {err.getvalue().strip()}"
            first = self.first[job["id"]] = (digest, problem, m, steps)
        elif digest != first[0]:
            return job["id"], ref, DIFFERS, first[2], ns
        return job["id"], ref, first[1], first[2], ns

    def check(self, job: dict, rc, text: str, files: dict) -> tuple[str | None, int, int]:
        """(problem or None, m the job reports, machine steps it reports)."""
        exp = job["expect"]
        if rc != exp["rc"]:
            return f"exit code {rc}, expected {exp['rc']}", 0, 0
        kind = job["kind"]
        try:
            if kind == "run":
                return self._check_run(exp, text, files)
            if kind == "bench":
                return self._check_bench(exp, text)
            if kind == "check":
                return self._check_check(exp, text), 0, 0
            if kind == "tier":
                if job["grsr"] not in self.grsr_texts:
                    self.grsr_texts[job["grsr"]] = Path(job["grsr"]).read_text()
                why = check_tier_output(text, self.grsr_texts[job["grsr"]], KNOWN_TIERS,
                                        job["tmax"])
                return why, 0, 0
            if exp["error"] is not None:
                return f"compiled program is wrong: {exp['error']}", 0, 0
            if hashlib.sha256(text.encode()).hexdigest() != exp["stdout_sha"]:
                return "compile output differs from the checked program", 0, 0
            return None, 0, 0
        except (ValueError, KeyError, IndexError) as e:
            return f"unreadable output ({type(e).__name__}: {e})", 0, 0

    @staticmethod
    def _check_run(exp: dict, text: str, files: dict) -> tuple[str | None, int, int]:
        blocks = [b for b in text.split("\n\n") if b.strip()]
        want = exp["reports"]
        if len(want) > 1:
            if blocks[-1].strip() != "agreement: ok":
                return f"no agreement: {blocks[-1].strip()[:200]}", 0, 0
            blocks = blocks[:-1]
        if len(blocks) != len(want):
            return f"{len(blocks)} reports, expected {len(want)}", 0, 0
        got = [_fields(b) for b in blocks]
        for f, w in zip(got, want):
            eng = w["engine"]
            checks = [
                ("engine", f["engine"], eng),
                ("value", hashlib.sha256(f["value"].encode()).hexdigest(), w["value_sha"]),
                ("value dag nodes", f["value dag nodes"], str(w["dag"])),
                ("unfolded size", f["unfolded size"], str(w["unfolded"])),
                ("m", f["m"], str(w["m"])),
            ]
            if eng != "naive":
                checks.append(("cache size", f["cache size"], str(w["m"])))
            for what, g, e in checks:
                if g != e:
                    return f"{eng} {what}: got {g[:80]}, expected {e[:80]}", 0, 0
        shared = got[0]
        if "{trace}" in files:
            why = _check_trace(files["{trace}"], shared)
            if why is not None:
                return f"--trace file: {why}", 0, 0
        if "{dot}" in files:
            dot = (files["{dot}"] or b"").decode()
            nodes = sum(1 for l in dot.splitlines() if l.endswith('"];') and "->" not in l)
            if not dot.startswith("digraph heap {") or str(nodes) != shared["value dag nodes"]:
                return f"--dot file has {nodes} nodes, not the answer's DAG", 0, 0
        return None, int(shared["m"]), int(shared["total steps"])

    @staticmethod
    def _check_bench(exp: dict, text: str) -> tuple[str | None, int, int]:
        lines = text.splitlines()
        if lines[0] != "engine,n,m,total_steps,heap_nodes,unfolded_size_or_overflow,wall_ns":
            return f"bad CSV header {lines[0]!r}", 0, 0
        rows = [l.split(",") for l in lines[1:]]
        if len(rows) != len(exp["rows"]):
            return f"{len(rows)} rows, expected {len(exp['rows'])}", 0, 0
        m = steps = 0
        for r, (eng, n, em, dag, unf) in zip(rows, exp["rows"]):
            got = (r[0], r[1], r[2], r[4], r[5])
            if got != (eng, str(n), str(em), str(dag), str(unf)):
                return f"row {','.join(r[:6])}, expected {eng},{n},{em},_,{dag},{unf}", 0, 0
            if eng == "shared":
                m += int(r[2])
                steps += int(r[3])
        return None, m, steps

    @staticmethod
    def _check_check(exp: dict, text: str) -> str | None:
        cat = exp["category"]
        if cat is None:
            return None if text == "orthogonal\n" else f"expected orthogonal, got {text[:200]!r}"
        lines = text.splitlines()
        if not lines or not all(l.startswith(cat + ":") for l in lines):
            return f"expected only {cat} problems, got {text[:200]!r}"
        return None


def loop(runner: Runner, jobs: list[dict], seconds: float, order: random.Random,
         tracer: Tracer | None = None) -> tuple[list[tuple], list[tuple]]:
    """Rounds over the job list, each in a fresh seeded order, until
    `seconds` have passed. A job's repeats thus fall at different times of
    the run. Returns the untraced runs and the traced runs.

    With a tracer, every second round runs traced, so that the host's
    drift over the run falls on traced and untraced runs alike. The first
    round, which holds every job's first run, is untraced. At least one
    whole round of each kind runs."""
    untraced: list[tuple] = []
    traced: list[tuple] = []
    end = time.perf_counter() + seconds
    jobs = list(jobs)
    whole = 1 if tracer is None else 2
    rnd = 0
    while True:
        on = tracer is not None and rnd % 2 == 1
        if on:
            tracer.install()
        try:
            for job in jobs:
                if rnd >= whole and time.perf_counter() >= end:
                    return untraced, traced
                if on:
                    traced.append(runner.execute(job, tracer))
                else:
                    untraced.append(runner.execute(job))
        finally:
            if on:
                tracer.restore()
        order.shuffle(jobs)
        rnd += 1


def job_times(execs: list[tuple], wall: bool = False) -> dict[int, float]:
    """Each job's median reference (or wall) time in ns over its repeats."""
    times: dict[int, list[float]] = {}
    for jid, ref, _, _, ns in execs:
        times.setdefault(jid, []).append(ns if wall else ref)
    return {jid: statistics.median(t) for jid, t in times.items()}


def whole_rounds(execs: list[tuple], jobs: int) -> list[tuple]:
    """The runs of the rounds that ran every job; the loop's last round
    is usually cut short by the clock."""
    return execs[: len(execs) // jobs * jobs]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(execs: list[tuple], jobs: int, setup_s: float, wall: bool = False) -> dict:
    """The end-to-end metrics from reference times, or from wall times."""
    ms = sorted(ns / 1e6 for ns in job_times(execs, wall).values())
    rounds = whole_rounds(execs, jobs)
    loop_s = sum(e[4] if wall else e[1] for e in rounds) / 1e9
    m = sum(m for _, _, _, m, _ in rounds)
    return {
        "job_ms_p50": (statistics.median(ms), "ms"),
        # over >= 100 distinct jobs, p90 keeps >= 10 samples above it
        "job_ms_p90": (nearest_rank(ms, 0.9), "ms"),
        "jobs_per_s": (len(rounds) / loop_s, "1/s"),
        "m_per_s": (m / loop_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def job_rows(jobs: list[dict], execs: list[tuple], runner: Runner) -> list[dict]:
    times: dict[int, list[tuple[float, float]]] = {}
    for jid, ref, _, _, ns in execs:
        times.setdefault(jid, []).append((ref / 1e6, ns / 1e6))
    rows = []
    for job in jobs:
        t = times.get(job["id"], [])
        ref, wall = [r for r, _ in t], [w for _, w in t]
        _, problem, m, steps = runner.first[job["id"]]
        rows.append({
            "id": job["id"], "kind": job["kind"], "program": job["program"],
            "size": job["size"], "flags": job["flags"], "m": m, "steps": steps,
            "runs": len(t), "ref_ms_median": statistics.median(ref) if t else None,
            "wall_ms_median": statistics.median(wall) if t else None,
            "wall_ms_min": min(wall) if t else None, "problem": problem,
        })
    return rows


def workload_digest(jobs: list[dict], runner: Runner) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(runner.first[job["id"]][0].encode())
    return h.hexdigest()


def overhead(untraced: list[tuple], traced: list[tuple], jobs: int) -> float:
    """Traced over untraced job time, minus 1, from each job's median time.

    The first untraced round holds every job's first run, which pays
    one-time costs that no traced run pays; it is left out for the jobs
    that ran untraced again."""
    u = {**job_times(untraced[:jobs]), **job_times(untraced[jobs:])}
    t = job_times(traced)
    return sum(t.values()) / sum(u[j] for j in t) - 1


def select(metrics: dict[str, tuple[float, str]], listed: list[dict]) -> dict:
    out = {}
    for spec in listed:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"{spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="memotrs end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"not a memotrs checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


def run(args) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    setup_s, setup_runs = measure_setup()
    sys.path.insert(0, str(ROOT / "src"))
    from memotrs.cli import main as cli_main

    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare(work, cli_main)
    planned = plan(args.workload, args.seed, work)
    jobs = planned["jobs"]
    runner = Runner(cli_main, work)
    order = random.Random(f"{args.workload}:{args.seed}:order")
    # keep the benchmark's own objects out of every later collection
    gc.collect()
    gc.freeze()
    head = header(args.workload, args.seed, int(args.seconds), bool(args.trace))
    results: dict = {"header": head, "setup_runs_s": setup_runs, "jobs": len(jobs)}

    if args.trace:
        tracer = Tracer()
        untraced, traced = loop(runner, jobs, args.seconds, order, tracer)
        execs = untraced + traced
        results["trace_fidelity_mismatches"] = sum(
            1 for e in traced if e[2] == DIFFERS)
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_ratio"] = (overhead(untraced, traced, len(jobs)), "ratio")
        listed = spec["per_layer"]
        results["spans"] = str(OUT / "results" / f"{tag}-spans.json")
    else:
        execs, _ = loop(runner, jobs, args.seconds, order)
        metrics = end_to_end(execs, len(jobs), setup_s)
        wall_setup = statistics.median(w for w, _ in setup_runs)
        wall = end_to_end(execs, len(jobs), wall_setup, wall=True)
        results["wall_metrics"] = {k: v for k, (v, _) in wall.items()}
        listed = spec["end_to_end"]

    failures = [(jid, p) for jid, _, p, _, _ in execs if p is not None]
    errors = planned["errors"]
    shown = select(metrics, listed)
    digest = workload_digest(jobs, runner)
    results.update({
        "attempted": len(execs), "failed": len(failures),
        "error_rate": len(failures) / len(execs), "setup_errors": errors,
        "digest": digest, "metrics": shown,
        "failures": [{"job": j, "problem": p} for j, p in failures[:20]],
        "job_rows": job_rows(jobs, execs, runner),
    })
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(results, indent=1))
    if args.trace:
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "job"],
             "spans": tracer.spans}))

    print(f"memotrs benchmark {tag}: python {head['python']}, nproc {head['nproc']}, "
          f"src {head['src_lines']} lines, git {head['git_sha']}")
    print(f"{len(jobs)} jobs, {len(execs)} runs, {len(failures)} failed "
          f"(error_rate {results['error_rate']:.4f}), digest {digest}")
    if not args.trace:
        print(f"  job times: each job's median of its runs; percentiles over {len(jobs)} jobs;"
              f" rates over {len(whole_rounds(execs, len(jobs))) // len(jobs)} whole rounds;"
              " times and rates in reference units (probe.py), wall figures beside them")
    for name, m in shown.items():
        also = f" (wall {results['wall_metrics'][name]:.6g})" if not args.trace else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{also}")
    for jid, p in failures[:5]:
        print(f"  FAILED job {jid}: {p.splitlines()[0] if p else ''}")
    correct = not failures and not errors
    print(json.dumps({"correct": correct, "attempted": len(execs),
                      "failed": len(failures) + len(errors), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
