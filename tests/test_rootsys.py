"""Root system construction against the reflection-closure oracle and the
frozen rank-2 tables."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pdclass.errors import InvalidTypeRank
from pdclass.rootsys import (
    _coroot_pairing,
    build_root_system,
    cartan_matrix,
    expected_root_count,
    root_add,
    root_key,
    root_neg,
    verify_triple_sum_reduction,
)

from conftest import (
    SWEEP_SYSTEMS,
    reference_triple_sum_reduction,
    reflection_closure_roots,
)

ALL_SYSTEMS = SWEEP_SYSTEMS + [("E", 6), ("E", 7), ("E", 8), ("A", 7), ("B", 5), ("C", 5), ("D", 5)]


# Frozen by hand from the defining data: C2 has simple roots short, long with
# Cartan matrix [[2,-1],[-2,2]]; G2 short, long with [[2,-1],[-3,2]].
C2_POSITIVES = {(1, 0), (0, 1), (1, 1), (2, 1)}
G2_POSITIVES = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_c2_frozen_table():
    rs = build_root_system("C", 2)
    assert rs.cartan == ((2, -1), (-2, 2))
    assert rs.symmetrizer == (1, 2)
    assert rs.bilinear == ((2, -2), (-2, 4))
    assert set(rs.positive_roots) == C2_POSITIVES
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1), (2, 1))
    assert len(rs.roots) == 8


def test_g2_frozen_table():
    rs = build_root_system("G", 2)
    assert rs.cartan == ((2, -1), (-3, 2))
    assert set(rs.positive_roots) == G2_POSITIVES
    assert len(rs.roots) == 12


def test_b2_transposed_orientation():
    rs = build_root_system("B", 2)
    assert rs.cartan == ((2, -2), (-1, 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


@pytest.mark.parametrize("type_label,rank", ALL_SYSTEMS)
def test_counts_and_reflection_closure(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert len(rs.roots) == expected_root_count(type_label, rank)
    assert rs.roots == reflection_closure_roots(rs.cartan)
    assert len(rs.positive_roots) * 2 == len(rs.roots)


TABLE_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [(t, n) for t in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("type_label,rank", TABLE_SYSTEMS)
def test_sum_partners_match_pairwise_sums(type_label, rank):
    # the partner pairs of ``root_table`` against every pairwise tuple sum,
    # on a fresh, uncached system: the build leaves the table for first use
    rs = build_root_system.__wrapped__(type_label, rank)
    assert "root_table" not in rs.__dict__
    ordered = sorted(rs.roots, key=root_key)
    position = {a: i for i, a in enumerate(ordered)}
    table = rs.root_table
    assert table.roots == tuple(ordered)
    assert table.index == position
    assert table.partners == tuple(
        tuple(
            (j, position[root_add(a, b)])
            for j, b in enumerate(ordered)
            if root_add(a, b) in rs.roots
        )
        for a in ordered
    )
    # the same pairs by offset k - j, positive exactly for a positive root
    for a, pairs, shifts in zip(ordered, table.partners, table.shifts):
        offsets = [d for d, _ in shifts]
        assert sorted(offsets) == sorted({k - j for j, k in pairs})
        for d, sums in shifts:
            assert (d > 0) == (a in rs.positive_roots)
            assert sums == sum(1 << k for j, k in pairs if k - j == d)
    assert rs.__dict__["root_table"] is table


@pytest.mark.parametrize("type_label,rank", TABLE_SYSTEMS)
def test_negatives(type_label, rank):
    rs = build_root_system.__wrapped__(type_label, rank)
    assert "root_table" not in rs.__dict__
    table = rs.root_table
    assert [table.roots[i] for i in table.negative] == [root_neg(a) for a in table.roots]
    assert rs.__dict__["root_table"] is table


@pytest.mark.parametrize("type_label,rank", TABLE_SYSTEMS + [("A", 16)])
def test_tuple_rank(type_label, rank):
    # ranks order the roots as plain tuples do; A16 has 272 roots, more
    # than one byte can rank
    rs = build_root_system.__wrapped__(type_label, rank)
    table = rs.root_table
    assert sorted(table.tuple_rank) == list(range(len(rs.roots)))
    by_rank = sorted(table.roots, key=lambda a: table.tuple_rank[table.index[a]])
    assert by_rank == sorted(rs.roots)


@pytest.mark.parametrize("type_label,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)])
def test_invalid_type_rank(type_label, rank):
    with pytest.raises(InvalidTypeRank):
        build_root_system(type_label, rank)


def test_bilinear_positive_definite():
    for type_label, rank in ALL_SYSTEMS:
        rs = build_root_system(type_label, rank)
        for alpha in rs.roots:
            norm = rs.pairing(alpha, alpha)
            assert norm > 0


def test_pairing_values_c2(c2):
    assert c2.pairing((1, 0), (1, 0)) == 2
    assert c2.pairing((0, 1), (0, 1)) == 4
    assert c2.pairing((1, 0), (0, 1)) == -2
    # dimension mismatch rejected
    with pytest.raises(ValueError):
        c2.pairing((1, 0, 0), (1, 0))


def test_root_set_sum(c2):
    out = c2.root_set_sum({(1, 0), (0, 1)}, {(1, 0), (0, 1)})
    assert out == frozenset({(1, 1)})


def test_root_strings_unbroken():
    # alpha and alpha + 2*beta roots force alpha + beta to be a root
    for type_label, rank in [("C", 2), ("G", 2), ("B", 3), ("F", 4)]:
        rs = build_root_system(type_label, rank)
        for alpha in rs.roots:
            for beta in rs.roots:
                mid = tuple(a + b for a, b in zip(alpha, beta))
                far = tuple(a + 2 * b for a, b in zip(alpha, beta))
                if far in rs.roots and mid != tuple([0] * rs.rank):
                    assert mid in rs.roots


def test_string_length_matches_coroot_pairing():
    # for any root and simple root, (steps down) - (steps up) equals the pairing
    for type_label, rank in [("C", 2), ("G", 2), ("D", 4), ("F", 4)]:
        rs = build_root_system(type_label, rank)
        for alpha in rs.roots:
            for i in range(rs.rank):
                down = 0
                walk = list(alpha)
                while True:
                    walk[i] -= 1
                    t = tuple(walk)
                    if t in rs.roots:
                        down += 1
                    elif all(x == 0 for x in t):
                        down += 1  # the string passes through zero only for alpha = simple
                        break
                    else:
                        break
                # recompute cleanly excluding zero crossing
                down_roots = 0
                walk = list(alpha)
                while True:
                    walk[i] -= 1
                    if tuple(walk) in rs.roots:
                        down_roots += 1
                    else:
                        break
                up_roots = 0
                walk = list(alpha)
                while True:
                    walk[i] += 1
                    if tuple(walk) in rs.roots:
                        up_roots += 1
                    else:
                        break
                simple_i = tuple(1 if j == i else 0 for j in range(rs.rank))
                if alpha == simple_i or alpha == tuple(-x for x in simple_i):
                    continue
                assert down_roots - up_roots == _coroot_pairing(rs.cartan, alpha, i)


def test_sum_or_difference_for_nonorthogonal_pairs():
    for type_label, rank in [("A", 3), ("D", 4)]:  # simply laced
        rs = build_root_system(type_label, rank)
        for alpha in rs.roots:
            for beta in rs.roots:
                if alpha in (beta, tuple(-x for x in beta)):
                    continue
                if rs.pairing(alpha, beta) != 0:
                    s = tuple(a + b for a, b in zip(alpha, beta)) in rs.roots
                    d = tuple(a - b for a, b in zip(alpha, beta)) in rs.roots
                    assert s != d


def test_triple_sum_reduction_small():
    for type_label, rank in [("A", 2), ("C", 2), ("G", 2), ("A", 3)]:
        ok, violations = verify_triple_sum_reduction(build_root_system(type_label, rank))
        assert ok, violations


def test_triple_sum_reduction_degenerate_mode(a2):
    ok, violations = verify_triple_sum_reduction(a2, include_degenerate=True)
    assert not ok
    assert len(violations) >= 1
    # spot-check one known degenerate failure shape
    for alpha, beta, gamma in violations:
        assert beta == tuple(-x for x in alpha) or gamma == tuple(-x for x in alpha)


@pytest.mark.parametrize("type_label,rank", TABLE_SYSTEMS)
def test_triple_sum_reduction_matches_reference(type_label, rank):
    # fresh, uncached systems, so the table is built by the lemma itself
    rs = build_root_system.__wrapped__(type_label, rank)
    assert verify_triple_sum_reduction(rs) == reference_triple_sum_reduction(rs)
    if rank <= 6:
        rs = build_root_system.__wrapped__(type_label, rank)
        assert verify_triple_sum_reduction(
            rs, include_degenerate=True
        ) == reference_triple_sum_reduction(rs, include_degenerate=True)


def test_root_key_order(c2):
    assert sorted(c2.positive_roots, key=root_key) == [(1, 0), (0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize("type_label,rank", TABLE_SYSTEMS)
def test_positive_roots_in_canonical_order(type_label, rank):
    # make_grading and verify_compact_from_noncompact rely on this order
    rs = build_root_system(type_label, rank)
    assert rs.positive_roots == tuple(sorted(rs.positive_roots, key=root_key))


def test_build_is_cached():
    assert build_root_system("C", 2) is build_root_system("C", 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_SYSTEMS), st.data())
def test_pairing_symmetric_and_bilinear(system, data):
    rs = build_root_system(*system)
    roots = sorted(rs.roots, key=root_key)
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots))
    assert rs.pairing(a, b) == rs.pairing(b, a)
    two_a = tuple(2 * x for x in a)
    assert rs.pairing(two_a, b) == 2 * rs.pairing(a, b)
    assert rs.pairing(b, two_a) == 2 * rs.pairing(b, a)


def test_cartan_matrix_validation():
    with pytest.raises(InvalidTypeRank):
        cartan_matrix("D", 2)
