"""The KL table stores each basis once: `phi` and `polys` are read-only
views over `psi`, and Path A's coefficients are interned.

The views are checked against the kept reference: `kl_basis_model` per
model, `phi_transport`, and the global-ids loop that built `polys` as a
dict, written out here.
"""

from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction

import pytest

from whitkl import (
    LaurentPoly,
    Weight,
    build_kl_table,
    kl_basis_model,
    phi_transport,
)

from conftest import get_group, lambda_golden_a3

HALF = Fraction(1, 2)

CASES = {
    "A3-golden": ("A", 3, (0, 1), lambda_golden_a3),
    "B3-nonintegral": (
        "B",
        3,
        (),
        lambda: Weight.from_values(
            [(-1, (-1,)), (-1, (1,)), -1], n_transcendentals=1
        ),
    ),
    # 8 integral models
    "D4-beta-half": (
        "D",
        4,
        (1,),
        lambda: Weight.from_values([-HALF, -1, -HALF, -HALF]),
    ),
    # the singular-nonintegral benchmark weight
    "D5-benchmark": (
        "D",
        5,
        (),
        lambda: Weight.from_values(
            [0, (-1, (1,)), -HALF, (-1, (-1,)), -1], n_transcendentals=1
        ),
    ),
}


def _reference(table):
    """phi and polys as the dicts build_kl_table used to hold."""
    bases = [kl_basis_model(model) for model in table.models]
    psi_by_u = {model.u: psi for model, (psi, _) in zip(table.models, bases)}
    phi = phi_transport(table.tc, table.models, psi_by_u)
    polys = {}
    for model, (_, model_polys) in zip(table.models, bases):
        for (f, g), poly in model_polys.items():
            polys[(model.ind[f], model.ind[g])] = poly
    return psi_by_u, phi, polys


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    letter, rank, theta, lam = CASES[request.param]
    table = build_kl_table(get_group(letter, rank), theta, lam())
    return table, _reference(table)


def test_views_iterate_as_the_reference_dicts(case):
    table, (psi_by_u, phi, polys) = case
    assert table.psi == psi_by_u
    assert list(table.phi.items()) == list(phi.items())
    assert list(table.polys.items()) == list(polys.items())
    assert list(table.phi) == list(phi)
    assert list(table.polys.values()) == list(polys.values())
    assert len(table.phi) == len(phi) == table.tc.n_cosets
    assert len(table.polys) == len(polys)
    assert table.phi == phi and not table.phi != phi
    assert table.polys == polys and not table.polys != polys


def test_views_look_up_as_the_reference_dicts(case):
    table, (_, phi, polys) = case
    for c, elt in phi.items():
        assert c in table.phi
        assert table.phi[c] == elt
        assert table.phi.get(c) == elt
    for key, poly in polys.items():
        assert key in table.polys
        assert table.polys[key] == poly
        assert table.polys.get(key) == poly
    # a pair inside one model that is not in the table
    n = table.tc.n_cosets
    absent = next(
        (c, d)
        for c in range(n)
        for d in range(n)
        if (c, d) not in polys and d in table.model_of_coset(c).restrict
    )
    assert absent not in table.polys
    with pytest.raises(KeyError):
        table.polys[absent]


def test_views_and_index_raise_key_error_outside_the_table(case):
    table, _ = case
    n = table.tc.n_cosets
    for bad in (n, -1, n + 5):
        assert bad not in table.phi
        assert table.phi.get(bad) is None
        with pytest.raises(KeyError):
            table.phi[bad]
        with pytest.raises(KeyError):
            table.model_of_coset(bad)
        for key in ((bad, 0), (0, bad)):
            assert key not in table.polys
            assert table.polys.get(key) is None
            with pytest.raises(KeyError):
                table.polys[key]
    assert "0" not in table.phi and (0,) not in table.polys
    if len(table.models) > 1:
        first, second = table.models[0], table.models[1]
        cross = (first.ind[0], second.ind[0])
        assert cross not in table.polys
        with pytest.raises(KeyError):
            table.polys[cross]
    for c in range(n):
        model = table.model_of_coset(c)
        assert c in model.restrict
    with pytest.raises(TypeError):
        table.polys[(0, 0)] = LaurentPoly.one()


def test_b4_store_holds_each_distinct_polynomial_once():
    table = build_kl_table(get_group("B", 4), (), Weight.minus_rho(4))
    polys = list(table.polys.values())
    assert len(polys) == 40249
    assert len(set(polys)) == 235
    assert len({id(poly) for poly in polys}) == 235


def test_b4_build_peak_memory():
    # measured with Python 3.11: 2.3 MB; a table with one LaurentPoly per
    # coefficient and phi and polys copied out of psi peaked at 18.6 MB
    group = get_group("B", 4)
    lam = Weight.minus_rho(4)
    gc.collect()
    tracemalloc.start()
    try:
        table = build_kl_table(group, (), lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.tc.n_cosets == 384
    assert peak < 5 * 2**20, f"build_kl_table peaked at {peak / 2**20:.1f} MB"


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    # phi and polys are made on access: a table holding views that hold its
    # own bound methods would wait, psi and all, for the cycle collector
    table = build_kl_table(get_group("A", 3), (), Weight.minus_rho(3))
    assert len(table.phi) == 24 and len(table.polys) > 24
    gc.collect()
    gc.disable()
    try:
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()
