"""Rectangle combinatorics: ordering, enumeration, minimal rectangles, growth sets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapflow.geometry import (
    LatticeSpec,
    Rect,
    all_rects,
    compare_step,
    count_shapes,
    enumerate_steps,
    g_set,
    minimal_rectangle,
    step_sort_key,
)

from oracles import three_clause_compare


def rect_strategy(d, N):
    def build(draw):
        k = tuple(draw(st.integers(0, N - 1)) for _ in range(d))
        q = tuple(draw(st.integers(1, N - kj)) for kj in k)
        return Rect(k, q)

    return st.composite(lambda draw: build(draw))()


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect((-1,), (1,))
        with pytest.raises(ValueError):
            Rect((1,), (0,))
        with pytest.raises(ValueError):
            Rect((1, 1), (1,))

    def test_sites_lexicographic(self):
        r = Rect((1, 1), (2, 3))
        assert r.sites() == [(2, 3), (2, 4), (3, 3), (3, 4)]
        assert r.n_sites == 4

    def test_circumference(self):
        assert Rect((2, 3), (1, 1)).circumference == 5
        assert Rect((0, 0), (1, 1)).circumference == 0
        assert Rect((1, 0, 2), (1, 1, 1)).circumference == 3

    def test_containment_and_overlap(self):
        big = Rect((2, 2), (1, 1))
        assert big.contains(Rect((1, 0), (2, 2)))
        assert not Rect((1, 0), (2, 2)).contains(big)
        assert Rect((1, 0), (1, 1)).overlaps(Rect((0, 1), (2, 1)))
        assert not Rect((1, 0), (1, 1)).overlaps(Rect((1, 0), (1, 3)))


class TestCompareStep:
    def test_footnote_position_order(self):
        a = Rect((1, 1), (1, 2))
        b = Rect((1, 1), (2, 1))
        assert compare_step(a, b) == 1
        assert compare_step(b, a) == -1

    def test_equal_circumference_shape_order(self):
        a = Rect((1, 2), (1, 1))
        b = Rect((2, 1), (1, 1))
        assert compare_step(a, b) == 1

    def test_circumference_dominates(self):
        assert compare_step(Rect((2, 0), (1, 1)), Rect((1, 0), (1, 1))) == 1

    def test_equal(self):
        r = Rect((1, 0), (2, 1))
        assert compare_step(r, r) == 0

    def test_strict_total_order_exhaustive(self):
        # every rectangle of the 3x3 lattice, degenerate points included
        rects = all_rects(LatticeSpec(2, 3))
        for a, b in itertools.combinations(rects, 2):
            assert compare_step(a, b) == -compare_step(b, a) != 0
        ordered = sorted(rects, key=step_sort_key)
        for a, b in itertools.combinations(ordered, 2):
            # sorted position agrees with pairwise comparison = transitivity
            assert compare_step(a, b) == -1
        for a in rects:
            for b in rects:
                if a.circumference > b.circumference:
                    assert compare_step(a, b) == 1

    @pytest.mark.parametrize("d, N", [(1, 6), (2, 4), (3, 3)])
    def test_matches_three_clause_rule_all_pairs(self, d, N):
        rects = all_rects(LatticeSpec(d, N))
        for a, b in itertools.product(rects, repeat=2):
            assert compare_step(a, b) == three_clause_compare(a, b), (a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sort_key_matches_comparison(self, data):
        d = data.draw(st.integers(1, 3))
        N = data.draw(st.integers(2, 4))
        a = data.draw(rect_strategy(d, N))
        b = data.draw(rect_strategy(d, N))
        cmp = compare_step(a, b)
        ka, kb = step_sort_key(a), step_sort_key(b)
        assert cmp == (ka > kb) - (ka < kb)


class TestEnumeration:
    def test_d1_n2(self):
        assert enumerate_steps(LatticeSpec(1, 2)) == [Rect((1,), (1,))]

    def test_d1_n3_brute_force_sorted(self):
        lat = LatticeSpec(1, 3)
        # oracle: generate all (k, q) with q + k <= 3, |k| >= 1, sort by comparison
        brute = [
            Rect((k,), (q,))
            for k in range(1, 3)
            for q in range(1, 3 - k + 1)
        ]
        brute.sort(key=step_sort_key)
        got = enumerate_steps(lat)
        assert got == brute
        assert got == [Rect((1,), (1,)), Rect((1,), (2,)), Rect((2,), (1,))]

    def test_d2_n2_brute_force(self):
        lat = LatticeSpec(2, 2)
        # independent double-loop count: sum over k != 0 of prod_j (N - k_j)
        count = 0
        for k1 in range(2):
            for k2 in range(2):
                if k1 + k2 >= 1:
                    count += (2 - k1) * (2 - k2)
        got = enumerate_steps(lat)
        assert len(got) == count == 5
        brute = set()
        for k1, k2 in itertools.product(range(2), repeat=2):
            if k1 + k2 < 1:
                continue
            for q1 in range(1, 3 - k1):
                for q2 in range(1, 3 - k2):
                    brute.add(Rect((k1, k2), (q1, q2)))
        assert set(got) == brute

    def test_endpoints(self):
        for d, N in [(1, 4), (2, 3)]:
            lat = LatticeSpec(d, N)
            steps = enumerate_steps(lat)
            assert steps[0].circumference == 1
            assert steps[-1] == Rect((N - 1,) * d, (1,) * d) == lat.full_rect()

    def test_first_steps(self):
        steps = enumerate_steps(LatticeSpec(2, 3))
        assert steps[:2] == [Rect((1, 0), (1, 1)), Rect((1, 0), (2, 1))]
        assert enumerate_steps(LatticeSpec(1, 3))[:2] == [Rect((1,), (1,)), Rect((1,), (2,))]


class TestMinimalRectangle:
    def test_idempotent(self):
        for r in all_rects(LatticeSpec(2, 3)):
            assert minimal_rectangle(r, r) == r

    def test_corner_formula_example(self):
        a = Rect((1, 0), (1, 1))
        b = Rect((0, 1), (2, 1))
        assert minimal_rectangle(a, b) == Rect((1, 1), (1, 1))

    def test_disjoint_rejected(self):
        with pytest.raises(ValueError, match="no minimal rectangle"):
            minimal_rectangle(Rect((1,), (1,)), Rect((1,), (3,)))

    def test_against_exhaustive_scan_oracle(self):
        lat = LatticeSpec(2, 4)
        rects = all_rects(lat)
        for a, b in itertools.combinations_with_replacement(rects, 2):
            if not a.overlaps(b):
                continue
            got = minimal_rectangle(a, b)
            assert got == minimal_rectangle(b, a)
            assert got.contains(a) and got.contains(b)
            # oracle: no rectangle with fewer sites contains both
            for cand in rects:
                if cand.contains(a) and cand.contains(b):
                    assert cand.n_sites >= got.n_sites
                    if cand.n_sites == got.n_sites:
                        assert cand == got


class TestGSet:
    def test_strict_containment_required(self):
        with pytest.raises(ValueError):
            g_set(Rect((1,), (1,)), Rect((1,), (1,)), LatticeSpec(1, 3))

    def test_d1_membership_brute_force(self):
        lat = LatticeSpec(1, 3)
        inner = Rect((1,), (1,))
        target = Rect((2,), (1,))
        got = g_set(inner, target, lat)
        # oracle: filter every rectangle by the minimal-rectangle condition
        expected = {
            r
            for r in all_rects(lat)
            if r != target
            and r.overlaps(inner)
            and minimal_rectangle(inner, r) == target
        }
        assert got == expected == {Rect((1,), (2,))}

    def test_interior_inner_gives_empty_set(self):
        lat = LatticeSpec(2, 4)
        target = Rect((3, 3), (1, 1))
        inner = Rect((1, 0), (2, 2))  # touches no face of the target
        assert g_set(inner, target, lat) == set()

    def test_members_touch_target_boundary(self):
        for N in (3, 4):
            lat = LatticeSpec(2, N)
            target = Rect((N - 1, N - 1), (1, 1))
            for inner in all_rects(lat):
                if not (target.contains(inner) and inner != target):
                    continue
                for member in g_set(inner, target, lat):
                    on_face = any(
                        member.q[j] == target.q[j]
                        or member.q[j] + member.k[j] == target.q[j] + target.k[j]
                        for j in range(2)
                    )
                    assert on_face

    def test_size_bound(self):
        # counting bound: 2d (r+1)^{d-1} sum_{k=1}^{r} (k+1)^{d-1}
        for d, N in [(1, 4), (2, 4)]:
            lat = LatticeSpec(d, N)
            for target in all_rects(lat, min_circ=1):
                r = target.circumference
                bound = 2 * d * (r + 1) ** (d - 1) * sum(
                    (k + 1) ** (d - 1) for k in range(1, r + 1)
                )
                for inner in all_rects(lat):
                    if target.contains(inner) and inner != target:
                        assert len(g_set(inner, target, lat)) <= bound


class TestCountShapes:
    def test_base_cases(self):
        assert count_shapes(0, 1) == 1
        assert count_shapes(0, 4) == 1
        assert count_shapes(3, 2) == 4

    def test_d3_l2_brute_force(self):
        brute = sum(
            1
            for k1 in range(3)
            for k2 in range(3)
            for k3 in range(3)
            if k1 + k2 + k3 == 2
        )
        assert count_shapes(2, 3) == brute == 6

    def test_power_bound(self):
        for d in range(1, 5):
            for l in range(21):
                brute = sum(
                    1
                    for combo in itertools.product(range(l + 1), repeat=d)
                    if sum(combo) == l
                ) if d <= 3 else None
                if brute is not None:
                    assert count_shapes(l, d) == brute
                assert count_shapes(l, d) <= (l + 1) ** (d - 1)
