"""The acceptance gate: one test per shipped criterion.

Each test runs the corresponding check from :mod:`webfoam.acceptance`,
prints a single PASS/FAIL line, and asserts both the check itself and
its wall-clock budget.  All comparisons inside the checks are exact.
"""

import time

import pytest

from webfoam import acceptance
from webfoam.cli import EXIT_INTERNAL, main
from webfoam.errors import InternalConsistencyError

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
