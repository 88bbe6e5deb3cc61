"""Root signs read from the keys w^-1 rho, against the oracle's root
permutations.

The group answers sign questions by w(beta) > 0 iff <beta^vee, w^-1 rho> > 0
and acts on roots and weights by walking words; ``oracle.root_images``
composes each element's permutation of the root list independently.  The
integral length ell_lambda, a distance over the reflections of Pi_lambda,
is checked against the inversion count over Sigma_lambda^+.
"""

from __future__ import annotations

import pytest

from whitkl.cli import parse_lambda
from whitkl.cosetlab import IntegralSystem, integral_data
from whitkl.oracle import act_on_weight, inversion_set, root_images
from whitkl.rootsystem import pair

from conftest import get_group


@pytest.mark.parametrize(
    "letter, rank, stride",
    [("G", 2, 1), ("B", 4, 1), ("F", 4, 1), ("D", 5, 1), ("E", 6, 97)],
)
def test_signs_and_actions_match_root_images(letter, rank, stride):
    g = get_group(letter, rank)
    rs = g.rs
    p = rs.positive_root_count
    lam = parse_lambda(",".join(f"-{i + 1}/3+{i}*t1" for i in range(rank)), rank)
    for w in range(0, g.size, stride):
        images = root_images(g, w)
        assert inversion_set(g, w) == frozenset(r for r in range(p) if images[r] >= p)
        assert g.descents_right(w) == frozenset(
            i for i in range(rank) if images[i] >= p
        )
        for r in range(p):
            assert g.act_on_root(w, r) == images[r], (w, r)
        inv_images = root_images(g, g.inverse[w])
        assert act_on_weight(g, w, lam).coords == tuple(
            pair(rs, inv_images[i], lam) for i in range(rank)
        )


@pytest.mark.parametrize("letter, rank", [("G", 2), ("B", 4), ("F", 4), ("D", 5)])
def test_positive_on_matches_root_images(letter, rank):
    g = get_group(letter, rank)
    p = g.rs.positive_root_count
    images = [root_images(g, w) for w in range(g.size)]
    for r in range(p):
        assert g.positive_on((r,)) == [w for w in range(g.size) if images[w][r] < p]
    # a simple system, a pair of non-simple roots, and no root at all
    for roots in [tuple(range(rank)), (p - 1, p - 2), ()]:
        assert g.positive_on(roots) == [
            w for w in range(g.size) if all(images[w][r] < p for r in roots)
        ]


@pytest.mark.parametrize(
    "letter, rank, lam_text",
    [
        ("F", 4, "-1,-1,-1,-1"),
        ("F", 4, "-1/2,-1,-1,-1/2"),
        ("D", 5, "0,-1+1*t1,-1/2,-1-1*t1,-1"),
        ("G", 2, "-1/3,-1"),
    ],
)
def test_integral_lengths_count_inversions_in_sigma_lambda(letter, rank, lam_text):
    g = get_group(letter, rank)
    p = g.rs.positive_root_count
    idata = integral_data(g, (), parse_lambda(lam_text, rank))
    expected = {}
    for w in idata.w_lambda_ids:
        images = root_images(g, w)
        expected[w] = sum(1 for r in idata.sigma_lambda_pos if images[r] >= p)
    assert IntegralSystem(g, idata).lengths == expected
