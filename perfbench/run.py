"""The preclones benchmark: one workload per invocation, one client, one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

A closed loop runs the workload's jobs one after another, each starting
after the previous verdict, and repeats whole passes over the job list
while another pass fits in ``--seconds`` (at least one pass).  Every
verdict is compared with perfbench/known_answers.json.  With ``--trace 0``
the end-to-end metrics are the medians over passes; with ``--trace 1`` one
plain pass is followed by one traced pass, and the per-layer metrics come
from the traced one.  The last line of stdout is the result
object; the line before it records the machine, commit and seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# a build or verify step is run again while its runs total less than
# MIN_REPEAT_S, at most MAX_REPEATS times in all
MIN_REPEAT_S = 0.3
MAX_REPEATS = 9

# why the inputs of each workload are what they are
FIXED_INPUTS = {
    "corpus": "fixed: the 32 formulas of the test corpus at max_nv 4 (acceptance "
              "criterion 4); the seed orders the jobs",
    "semantics": "fixed: the 28 corpus formulas of quantifier depth <= 1 at max_nv 7; "
                 "the seed orders the jobs",
    "algebra": "fixed: criterion 1's eight axiom targets and criteria 2-3's four "
               "syntactic pg-pairs; the seed orders the jobs and picks the corrupted "
               "comp line",
    "blockprod": "seeded: the seed draws the associativity triples, the two-route "
                 "trees and contexts, and the width-2 and composite samples",
}
WHY_FIXED = (
    "seeded random automata do not give steady inputs: of 28 seeded 3-state "
    "automata none closed within 60 elements, and a seeded 2-state automaton "
    "(seed 1) ran for more than 190 s"
)


def use_checkout_source():
    """Import the library from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "preclones", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, SRC)
    import preclones

    if os.path.dirname(os.path.abspath(preclones.__file__)) != os.path.join(SRC, "preclones"):
        sys.exit(f"perfbench: preclones imported from {preclones.__file__}, not {SRC}")


def load_answers():
    with open(os.path.join(HERE, "known_answers.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running jobs


@dataclass
class JobResult:
    name: str
    build_s: float
    verify_s: float
    ok: bool
    verdict: object

    @property
    def total_s(self):
        return self.build_s + self.verify_s


def _repeat(fn, repeats, keep):
    """Call ``fn`` until the calls take MIN_REPEAT_S, or ``repeats`` times.

    Returns the last result, every result if ``keep`` (else none), and the
    median time of one call.  Without ``keep`` a result is dropped before
    the next call, so memory stays that of a single call.
    """
    times, kept, out = [], [], None
    while not times or (len(times) < repeats and sum(times) < MIN_REPEAT_S):
        out = None
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
        if keep:
            kept.append(out)
    return out, kept, statistics.median(times)


def run_pass(jobs, tracer=None):
    """Run every job in order; a job that raises is a failed job.

    Untraced, a build or verify step shorter than MIN_REPEAT_S is repeated
    and its median time kept, so short steps do not carry the machine's
    short bursts of noise; every verdict must agree.
    Traced, each step runs once, so the per-layer counts are those of one
    job.
    """
    repeats = 1 if tracer is not None else MAX_REPEATS
    results = []
    for job in jobs:
        gc.collect()  # each job starts on a clean heap, as a fresh CLI process does
        if tracer is not None:
            tracer.begin_job(job.name)
        build_s = verify_s = 0.0
        try:
            state, _, build_s = _repeat(job.build, repeats, keep=False)
            verdict, verdicts, verify_s = _repeat(lambda: job.verify(state), repeats, keep=True)
            if any(v != verdict for v in verdicts):
                verdict = f"verdicts differ between repeats: {verdicts!r}"
        except Exception as exc:  # the run goes on; the job counts as failed
            verdict = f"raised {type(exc).__name__}: {exc}"
        state = None
        results.append(JobResult(job.name, build_s, verify_s, verdict == job.expected, verdict))
    if tracer is not None:
        tracer.end_job()
    return results


def pass_summary(results):
    return {
        "wall_s": sum(r.total_s for r in results),
        "build_s": sum(r.build_s for r in results),
        "verify_s": sum(r.verify_s for r in results),
        "slowest_job_s": max(r.total_s for r in results),
    }


def time_setup(workload, seed):
    """Median wall time of a fresh process that imports and loads the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

# the unit of a metric, by the last dot-separated part of its name
UNITS = {"wall_s": "s", "build_s": "s", "verify_s": "s", "slowest_job_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio", "calls": "count", "items": "count", "elements": "count", "contexts": "count",
         "instances": "count", "structures": "count", "states_in": "count",
         "states_out": "count", "s": "s", "self_s": "s", "ns_per_call": "ns",
         "distinct_ratio": "ratio", "distinct_t_ratio": "ratio", "hit_ratio": "ratio",
         "overhead_ratio": "ratio"}


def layer_metrics(tr, formula_names, overhead_ratio):
    """Every per-layer metric; a layer the workload does not run reads 0."""

    def ratio(a, b):
        return a / b if b else 0.0

    c, s, n = tr.calls, tr.self_s, tr.count
    m = {}
    for name, timed in [("trees.enumerate_trees", True), ("automata.minimize", True),
                        ("preclone.compose", True), ("preclone.transformation_pgpair", True),
                        ("preclone.close_for_evaluation", True),
                        ("syntactic.syntactic_pgpair", True),
                        ("syntactic.enumerate_contexts", True), ("blockprod.compose", True),
                        ("blockprod.carrier_pgpair", True), ("blockprod.alpha_apply", True),
                        ("blockprod.relabel", True), ("logic.satisfies", True),
                        ("logic.characteristic_tree", True), ("compiler.membership", True),
                        ("compiler.compile", False)]:
        m[name + ".calls"] = c(name)
        if timed:
            m[name + ".self_s"] = s(name)
    for name in ("preclone.close_under_composition", "preclone.quotient",
                 "preclone.check_axioms", "preclone.load_preclone",
                 "syntactic.syntactic_congruence", "syntactic.find_isomorphism",
                 "logic.parse_formula", "logic.structures", "compiler.compile_atomic",
                 "compiler.check_equivalence", "cli.load_formula_file"):
        m[name + ".self_s"] = s(name)
    for name in ("trees.enumerate_trees.items", "automata.minimize.states_in",
                 "automata.minimize.states_out", "preclone.transformation_pgpair.elements",
                 "preclone.check_axioms.instances", "syntactic.enumerate_contexts.contexts",
                 "blockprod.carrier_pgpair.elements", "logic.structures.items",
                 "compiler.check_equivalence.structures"):
        m[name] = n(name)
    m["preclone.compose.ns_per_call"] = ratio(s("preclone.compose") * 1e9, c("preclone.compose"))
    m["preclone.compose.distinct_ratio"] = ratio(n("preclone.compose.distinct"),
                                                 c("preclone.compose"))
    m["blockprod.compose.distinct_t_ratio"] = ratio(n("blockprod.compose.distinct_t"),
                                                    c("blockprod.compose"))
    m["compiler.compile.hit_ratio"] = ratio(n("compiler.compile.hits"), c("compiler.compile"))
    m["compiler.compile_formula.s"] = tr.inclusive_s("compiler.compile_formula")
    per_job = tr.job_inclusive_s("compiler.compile_formula")
    for name in formula_names:
        m[f"compiler.compile_formula.s.{name}"] = per_job.get(name, 0.0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def metric_unit(name):
    if name.startswith("compiler.compile_formula.s."):
        return "s"
    return UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# the record of where a result was measured


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "cpu_model": cpu}


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["corpus", "semantics", "algebra", "blockprod"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and load the inputs, then exit (times set-up)")
    args = p.parse_args(argv)

    use_checkout_source()
    answers = load_answers()
    import workloads

    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(answers, args.seed)
        return 0

    setup_s = time_setup(args.workload, args.seed) if not args.trace else None
    jobs = make(answers, args.seed)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(jobs))
        elapsed = perf_counter() - start
        if args.trace or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "machine": machine(),
            "inputs": FIXED_INPUTS[args.workload], "why_fixed": WHY_FIXED}
    if args.trace:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        try:
            tr.begin_job("setup")
            jobs = make(answers, args.seed)
            tr.end_job()
            passes.append(run_pass(jobs, tr))
        finally:
            tr.uninstall()
        untraced, traced = (pass_summary(r)["wall_s"] for r in passes)
        names = sorted(answers["corpus"]["formulas"])
        metrics = layer_metrics(tr, names, traced / untraced)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        trace_path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"info": info, "aggregates": tr.agg, "counts": tr.counts,
                       "spans": tr.spans}, fh)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        summaries = [pass_summary(r) for r in passes]
        metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [r for ps in passes for r in ps]
    failed = [r for r in results if not r.ok]
    if not args.trace:
        metrics["ok_ratio"] = (len(results) - len(failed)) / len(results)
    info["passes"] = len(passes)
    info["jobs"] = {
        job.name: {"median_s": statistics.median(r.total_s for r in results if r.name == job.name)}
        for job in jobs
    }
    info["failed_jobs"] = [{"job": r.name, "verdict": repr(r.verdict)} for r in failed]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": metric_unit(k)}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
