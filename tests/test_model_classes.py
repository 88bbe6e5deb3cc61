"""Path A computes one KL basis per model class.

A model class is the set of integral models with one coset table of
(W_lambda, Pi_lambda) with Theta(u,lambda).  `build_kl_table` runs the
basis recursion once per class, the models of a class share one `psi`
dict and one space tag, and models of different classes cannot be mixed.
`info` and `cosets` list the models without computing any basis.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import whitkl.klengine
from whitkl import Weight, build_kl_table
from whitkl.cli import Job, run_cosets, run_info
from whitkl.heckemodule import SpaceMismatchError, model_tag
from whitkl.oracle import delta, t_alpha_model

from conftest import get_group, lambda_golden_a3

HALF = Fraction(1, 2)

# (letter, rank, theta, lambda, models, classes)
CASES = {
    "A3-golden": ("A", 3, (0, 1), lambda_golden_a3, 2, 2),
    "D4-beta-half": (
        "D",
        4,
        (1,),
        lambda: Weight.from_values([-HALF, -1, -HALF, -HALF]),
        8,
        5,
    ),
    # the singular-nonintegral benchmark weight
    "D5-benchmark": (
        "D",
        5,
        (),
        lambda: Weight.from_values(
            [0, (-1, (1,)), -HALF, (-1, (-1,)), -1], n_transcendentals=1
        ),
        160,
        1,
    ),
}


def _d4_table():
    letter, rank, theta, lam, _, _ = CASES["D4-beta-half"]
    return build_kl_table(get_group(letter, rank), theta, lam())


@pytest.mark.parametrize("name", list(CASES))
def test_one_basis_recursion_per_model_class(name, monkeypatch):
    letter, rank, theta, lam, n_models, n_classes = CASES[name]
    calls = []
    kl_basis = whitkl.klengine._kl_basis

    def counted(model, store):
        calls.append(model.quotient)
        return kl_basis(model, store)

    monkeypatch.setattr(whitkl.klengine, "_kl_basis", counted)
    table = build_kl_table(get_group(letter, rank), theta, lam())
    assert len(table.models) == n_models
    assert len(calls) == n_classes
    assert len({id(q) for q in calls}) == n_classes
    assert {id(m.quotient) for m in table.models} == {id(q) for q in calls}


@pytest.mark.parametrize("name", list(CASES))
def test_models_of_one_class_share_one_basis(name):
    letter, rank, theta, lam, _, _ = CASES[name]
    table = build_kl_table(get_group(letter, rank), theta, lam())
    by_class = {}
    for model in table.models:
        first = by_class.setdefault(id(model.quotient), model)
        assert table.psi[model.u] is table.psi[first.u]
        assert model_tag(model) == model_tag(first)
    assert len({id(psi) for psi in table.psi.values()}) == len(by_class)


def test_same_class_models_are_one_module():
    table = _d4_table()
    first, other = next(
        (a, b)
        for i, a in enumerate(table.models)
        for b in table.models[i + 1 :]
        if a.quotient is b.quotient
    )
    assert first.u != other.u
    total = delta(model_tag(first), 0) + delta(model_tag(other), 0)
    assert total == delta(model_tag(first), 0).scale(2)


def test_models_of_different_classes_do_not_mix():
    table = _d4_table()
    first = table.models[0]
    other = next(m for m in table.models if m.theta_u_lambda != first.theta_u_lambda)
    with pytest.raises(SpaceMismatchError):
        delta(model_tag(first), 0) + delta(model_tag(other), 0)
    with pytest.raises(SpaceMismatchError):
        table.psi[first.u][0] - table.psi[other.u][0]
    with pytest.raises(SpaceMismatchError):
        t_alpha_model(other, other.pi_lambda[0], table.psi[first.u][0])


@pytest.mark.parametrize("run", [run_info, run_cosets])
def test_info_and_cosets_compute_no_basis(run, monkeypatch):
    letter, rank, theta, lam, _, _ = CASES["A3-golden"]
    job = Job(letter, rank, theta, lam())
    expected = run(job)

    def no_basis(*args):
        raise AssertionError("a KL basis was computed")

    monkeypatch.setattr(whitkl.klengine, "_kl_basis", no_basis)
    assert run(job) == expected
    assert len(expected["models"]) == 2
