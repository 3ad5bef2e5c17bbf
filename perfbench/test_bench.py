"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_bench.py

They run every workload twice, untraced and traced, so they take a few
minutes.  The repository's test suite does not collect them.
"""

import json
import os

import pytest

import run

run.use_checkout_source()

import tracer  # noqa: E402
import workloads  # noqa: E402
from preclones import compiler, errors  # noqa: E402


def _only(jobs, *names):
    return [j for j in jobs if j.name in names]


def test_wrong_expected_answer_is_a_failed_job():
    answers = run.load_answers()
    answers["semantics"]["formulas"]["ex01"]["accepted"] += 1
    jobs = _only(workloads.make_semantics(answers, 0), "ex01", "ex02")
    results = {r.name: r for r in run.run_pass(jobs)}
    assert not results["ex01"].ok
    assert results["ex02"].ok


def test_corrupted_dump_with_an_ok_answer_is_a_failed_job():
    answers = run.load_answers()
    answers["algebra"]["corrupted"] = "OK"
    (result,) = run.run_pass(_only(workloads.make_algebra(answers, 3), "axioms-corrupted-dump"))
    assert not result.ok and result.verdict == "VIOLATION"


def test_a_job_that_raises_is_a_failed_job():
    def build():
        raise errors.RankOverflow("boom")

    (result,) = run.run_pass([workloads.Job("raises", build, lambda s: s, None)])
    assert not result.ok and "RankOverflow" in result.verdict


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_verdicts_match_with_tracing_on_and_off(workload):
    answers = run.load_answers()
    make = workloads.WORKLOADS[workload]
    plain = run.run_pass(make(answers, 5))
    original = compiler.compile_formula
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.run_pass(make(answers, 5), tr)
    finally:
        tr.uninstall()
    assert compiler.compile_formula is original
    assert all(r.ok for r in plain)
    assert [(r.name, r.verdict) for r in plain] == [(r.name, r.verdict) for r in traced]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric_of_benchmark_json(trace, capsys):
    assert run.main(["--workload", "semantics", "--seed", "4", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
