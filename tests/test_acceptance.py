"""The acceptance gate: one test per shipped criterion.

Each test runs the corresponding check from :mod:`webfoam.acceptance`,
prints a single PASS/FAIL line, and asserts both the check itself and
its wall-clock budget.  All comparisons inside the checks are exact.
"""

import itertools
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from webfoam import acceptance, foams, linalg, operators, webs
from webfoam.cli import EXIT_INTERNAL, main
from webfoam.errors import InputError, InternalConsistencyError
from webfoam.laurent import ONE

CRITERIA = [
    # (number, key, budget in seconds)
    (1, "tait-formula", 60.0),
    (2, "foam-table", 5.0),
    (3, "unknot-model", 1.0),
    (4, "theta-model", 10.0),
    (5, "order4-certificate", 1.0),
    (6, "handcuffs-pair", 5.0),
    (7, "inequality-uct-suite", 120.0),
    (8, "cone-p", 1.0),
]


@pytest.mark.parametrize("number,key,budget", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, key, budget):
    func, registered_budget = acceptance.CHECKS[key]
    assert registered_budget == budget
    start = time.perf_counter()
    failures, summary = func(acceptance.CheckContext())
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed <= budget else "FAIL"
    detail = "; ".join(failures) or summary
    print(f"ACCEPTANCE {number} [{key}] {status} ({elapsed:.2f}s): {detail}")
    assert not failures, detail
    assert elapsed <= budget, f"{key} took {elapsed:.1f}s (budget {budget:.0f}s)"


def test_run_all_aggregates():
    results = acceptance.run_all(keys=["cone-p", "unknot-model"])
    assert [r.key for r in results] == ["cone-p", "unknot-model"]
    assert all(r.passed for r in results)
    with pytest.raises(ValueError):
        acceptance.run_all(keys=["nope"])


def test_empty_corpus_fails_the_tait_check(tmp_path):
    failures, _ = acceptance.check_tait_formula(acceptance.CheckContext(tmp_path))
    assert failures == [f"{tmp_path}: no *.json web in the corpus"]


def test_run_all_hands_the_context_to_every_check(monkeypatch, tmp_path):
    seen = []

    def recording(ctx):
        seen.append(ctx)
        return [], "recorded"

    monkeypatch.setitem(acceptance.CHECKS, "cone-p", (recording, 1.0))
    monkeypatch.setitem(acceptance.CHECKS, "unknot-model", (recording, 1.0))
    results = acceptance.run_all(["cone-p", "unknot-model"], corpus=tmp_path, seed=7)
    assert seen == [acceptance.CheckContext(corpus=tmp_path, seed=7)] * 2
    assert [(r.passed, r.detail) for r in results] == [(True, "recorded")] * 2


def test_failures_become_the_detail(monkeypatch):
    def failing(ctx):
        return ["first problem", "second problem"], "unused summary"

    monkeypatch.setitem(acceptance.CHECKS, "cone-p", (failing, 1.0))
    (result,) = acceptance.run_all(["cone-p"])
    assert not result.passed
    assert result.detail == "first problem; second problem"


def test_internal_error_becomes_a_fail_row(monkeypatch, capsys):
    def broken(ctx):
        raise InternalConsistencyError("rank routes disagree")

    monkeypatch.setitem(acceptance.CHECKS, "order4-certificate", (broken, 1.0))
    keys = ["cone-p", "order4-certificate", "unknot-model"]
    results = acceptance.run_all(keys=keys)
    assert [r.key for r in results] == keys
    assert [r.passed for r in results] == [True, False, True]
    assert [r.internal_error for r in results] == [False, True, False]
    assert "rank routes disagree" in results[1].detail

    code = main(["verify-all", "--only", ",".join(keys)])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    lines = out.splitlines()
    assert lines[0].startswith("PASS  cone-p")
    assert lines[1].startswith("FAIL  order4-certificate")
    assert "internal consistency failure: rank routes disagree" in lines[1]
    assert lines[2].startswith("PASS  unknot-model")
    assert lines[3] == "FAILURES"
    assert "rank routes disagree" in err


def test_input_error_becomes_a_fail_row(monkeypatch, capsys):
    def rejecting(ctx):
        raise InputError("x.json: $: expected a JSON object")

    monkeypatch.setitem(acceptance.CHECKS, "order4-certificate", (rejecting, 1.0))
    keys = ["cone-p", "order4-certificate", "unknot-model"]
    code = main(["verify-all", "--only", ",".join(keys)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line[:4] for line in lines[:3]] == ["PASS", "FAIL", "PASS"]
    assert lines[1] == (
        "FAIL  order4-certificate  invalid input: x.json: $: expected a JSON object"
    )
    assert lines[3:] == ["FAILURES"]


@pytest.mark.parametrize("failures", [[], ["wrong"]])
def test_budget_overrun_fails_the_check(monkeypatch, failures):
    # a fake clock reads 2.5 s for a check with a 1 s budget; a passing
    # check fails with the overrun, a failing one keeps its failures
    monkeypatch.setattr(
        acceptance, "time", SimpleNamespace(perf_counter=iter([10.0, 12.5]).__next__)
    )
    monkeypatch.setitem(acceptance.CHECKS, "cone-p", (lambda ctx: (failures, "ok"), 1.0))
    (result,) = acceptance.run_all(["cone-p"])
    assert (result.passed, result.seconds, result.budget) == (False, 2.5, 1.0)
    if failures:
        assert result.detail == "wrong"
    else:
        assert result.detail == "ok; exceeded the 1s budget (2.5s)"


def test_generated_graph_disagreement_is_named(monkeypatch):
    count = webs.count_tait_matching_formula
    monkeypatch.setattr(
        webs,
        "count_tait_matching_formula",
        lambda web: count(web) + (web.name == "cubic4-1"),
    )
    failures, _ = acceptance.check_tait_formula(acceptance.CheckContext())
    assert failures == ["cubic4-1: backtracking 12 != formula 13"]


def theta_wrong_on(monkeypatch, bad):
    """Make the check's ``eval_theta`` off by one on the triples in ``bad``."""

    def patched(*dots):
        value = foams.eval_theta(*dots)
        return value + ONE if dots in bad else value

    monkeypatch.setattr(acceptance, "eval_theta", patched)


def test_foam_table_evaluates_each_triple_once(monkeypatch):
    calls = []

    def counted(*dots):
        calls.append(dots)
        return foams.eval_theta(*dots)

    monkeypatch.setattr(acceptance, "eval_theta", counted)
    failures, _ = acceptance.check_foam_table(acceptance.CheckContext())
    assert failures == []
    # theta(0,1,2), then each of the 9^3 ordered triples once
    assert len(calls) == 730
    assert len(set(calls)) == 729


def test_foam_table_catches_one_wrong_permutation(monkeypatch):
    theta_wrong_on(monkeypatch, {(4, 3, 0)})
    failures, _ = acceptance.check_foam_table(acceptance.CheckContext())
    assert failures[0] == "theta(0, 3, 4): not invariant under (4, 3, 0)"


def test_foam_table_catches_one_wrong_value(monkeypatch):
    # wrong on every ordering alike, so only the oracles can see it
    theta_wrong_on(monkeypatch, set(itertools.permutations((0, 3, 4))))
    failures, _ = acceptance.check_foam_table(acceptance.CheckContext())
    assert failures == ["theta(0, 3, 4): closed-form oracle disagrees"]


def test_theta_model_runs_each_relation_and_solve_once(monkeypatch):
    calls = Counter()
    targets = ((operators, "check_vertex_relations"), (linalg, "solve_unimodular"))
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    operators.theta_module.cache_clear()
    foams._eval_theta_sorted.cache_clear()
    (result,) = acceptance.run_all(["theta-model"])
    assert result.passed
    assert calls == {"check_vertex_relations": 1, "solve_unimodular": 1}
