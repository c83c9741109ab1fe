"""Branch re-expansion, component decompositions, and rectangle paths."""

import gc
import weakref

import numpy as np
import pytest

from gapflow import expansion, schwinger, tensor
from gapflow.expansion import (
    PathOfRects,
    branch_sum,
    build_gamma,
    closed_path,
    decompose_components,
    direction_count,
    enumerate_branches,
    is_connected_family,
    weighted_branch_sum,
)
from gapflow.flow import run_flow
from gapflow.geometry import (
    LatticeSpec,
    Rect,
    all_rects,
    compare_step,
    enumerate_steps,
    minimal_rectangle,
)
from gapflow.model import random_model
from gapflow.schwinger import rotation_delta, rotation_delta_norm
from gapflow.tensor import LocalOp, border_norm, embed, hermitian_norm
from gapflow.verify import verify_main_theorem

from oracles import bounding_rect

class UnionFind:
    """Independent component-count oracle."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self):
        return len({self.find(i) for i in range(len(self.parent))})


def union_find_components(rects):
    uf = UnionFind(len(rects))
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects[i].overlaps(rects[j]):
                uf.union(i, j)
    return uf.count()


def random_connected_family(rng, lat, n, circ=None):
    """Grow a family one overlapping rectangle at a time."""
    pool = [
        r
        for r in all_rects(lat, min_circ=1)
        if circ is None or r.circumference == circ
    ]
    family = [pool[rng.integers(len(pool))]]
    guard = 0
    while len(family) < n and guard < 10000:
        guard += 1
        cand = pool[rng.integers(len(pool))]
        if cand in family:
            continue
        if any(cand.overlaps(r) for r in family):
            family.append(cand)
    return family


def flow_state(d, N, t=0.05, seed=33):
    spec = random_model(LatticeSpec(d, N), 2, t, seed=seed)
    return spec, run_flow(spec, keep_history=True)


class TestEnumerateBranches:
    def test_unreachable_target_has_no_branches(self):
        spec, state = flow_state(1, 4)
        steps = enumerate_steps(spec.lat)
        # nothing supported this far right can have grown during step one
        exp = enumerate_branches(Rect((2,), (2,)), steps[0], state)
        assert exp.branches == []

    def test_reconciles_with_stored_entries(self):
        for d, N in [(1, 3), (2, 2)]:
            spec, state = flow_state(d, N)
            steps = enumerate_steps(spec.lat)
            target = spec.lat.full_rect()
            for i, root in enumerate(steps):
                exp = enumerate_branches(target, root, state)
                total = branch_sum(exp, 2).matrix
                stored = state.map_snapshots[i].get(target)
                stored_m = stored.matrix if stored is not None else np.zeros_like(total)
                assert np.linalg.norm(total - stored_m, 2) <= 1e-9

    def test_labels_strictly_descending(self):
        spec, state = flow_state(2, 2)
        steps = enumerate_steps(spec.lat)
        exp = enumerate_branches(spec.lat.full_rect(), steps[-2], state)
        for b in exp.branches:
            for a, c in zip(b.labels, b.labels[1:]):
                assert compare_step(a, c) == 1

    def test_p_injective_rect_sequences(self):
        spec, state = flow_state(2, 2)
        steps = enumerate_steps(spec.lat)
        for root in steps:
            exp = enumerate_branches(spec.lat.full_rect(), root, state)
            seqs = [b.rects for b in exp.branches]
            assert len(seqs) == len(set(seqs))

    def test_p_connected_suffixes(self):
        spec, state = flow_state(1, 3)
        steps = enumerate_steps(spec.lat)
        exp = enumerate_branches(spec.lat.full_rect(), steps[1], state)
        assert exp.branches
        for b in exp.branches:
            seq = b.rects
            for start in range(len(seq)):
                assert is_connected_family(seq[start:])

    def test_p_minimal_rectangle_is_target(self):
        for d, N in [(1, 3), (2, 2)]:
            spec, state = flow_state(d, N)
            steps = enumerate_steps(spec.lat)
            target = spec.lat.full_rect()
            for root in steps:
                for b in enumerate_branches(target, root, state).branches:
                    assert bounding_rect(b.rects) == target

    def test_size_ratio_diagnostic(self):
        spec, state = flow_state(1, 3)
        steps = enumerate_steps(spec.lat)
        exp = enumerate_branches(spec.lat.full_rect(), steps[1], state)
        assert exp.min_size_ratio is not None and exp.min_size_ratio > 0

    def test_weighted_sum_dominates(self):
        for d, N in [(1, 3), (2, 2)]:
            spec, state = flow_state(d, N)
            steps = enumerate_steps(spec.lat)
            v1n = {r.rect: r.v1_norm for r in state.history if not r.skipped}
            for root in steps:
                exp = enumerate_branches(spec.lat.full_rect(), root, state)
                lhs, rhs = weighted_branch_sum(exp, spec.t, v1n)
                assert lhs <= rhs + 1e-12

    def test_each_branch_norm_taken_once(self, monkeypatch):
        # across the flow (series and audit), its verification and the
        # expansion of every root step, no matrix is normed densely twice:
        # a leaf reads the norm its entry already took, a rotated branch
        # takes its norm from the border of its rotation, and no
        # (generator, branch) input is rotated twice
        normed, bordered, deltas, rotated = [], [], [], []
        monkeypatch.setattr(
            tensor, "hermitian_norm", lambda a: normed.append(a) or hermitian_norm(a)
        )
        monkeypatch.setattr(
            schwinger, "border_norm", lambda b, c: bordered.append(c) or border_norm(b, c)
        )
        monkeypatch.setattr(
            expansion,
            "rotation_delta_norm",
            lambda op, J, x: deltas.append(rotation_delta_norm(op, J, x)) or deltas[-1],
        )
        apply_a = expansion._Expander.apply_a
        monkeypatch.setattr(
            expansion._Expander,
            "apply_a",
            lambda self, label, sub: rotated.append((label, sub.labels, sub.leaf))
            or apply_a(self, label, sub),
        )
        spec, state = flow_state(1, 4)
        v1n = {r.rect: r.v1_norm for r in state.history if not r.skipped}
        assert verify_main_theorem(state).passed()
        exps = [
            enumerate_branches(spec.lat.full_rect(), root, state)
            for root in enumerate_steps(spec.lat)
        ]
        branches = [b for exp in exps for b in exp.branches]
        leaves = [b for b in branches if not b.labels]
        rotations = [b for b in branches if b.labels]
        assert leaves and rotations
        assert len({id(a.matrix) for a in normed}) == len(normed)
        assert {id(b.op) for b in leaves} <= {id(a) for a in normed}
        assert not {id(b.op) for b in rotations} & {id(a) for a in normed}
        assert len(bordered) == len(deltas)
        assert {id(b.op.matrix) for b in rotations} <= {id(out) for out, _ in deltas}
        assert len(set(rotated)) == len(rotated)
        calls = (len(normed), len(bordered))
        sums = [weighted_branch_sum(exp, spec.t, v1n)[0] for exp in exps]
        assert (len(normed), len(bordered)) == calls
        assert all(b.norm == hermitian_norm(b.op) for b in leaves)
        for b in rotations:
            assert abs(b.norm - hermitian_norm(b.op)) <= 1e-13 * b.norm
        assert sums == [sum(b.norm for b in exp.branches) for exp in exps]

    def test_empty_expansion_weighs_zero(self):
        spec, state = flow_state(1, 4)
        steps = enumerate_steps(spec.lat)
        exp = enumerate_branches(Rect((2,), (2,)), steps[0], state)
        assert weighted_branch_sum(exp, spec.t, {}) == (0.0, 0.0)


def assert_same_expansion(got, want, M):
    assert got.measured_c == want.measured_c
    assert got.min_size_ratio == want.min_size_ratio
    assert len(got.branches) == len(want.branches)
    for a, b in zip(got.branches, want.branches):
        assert (a.labels, a.leaf) == (b.labels, b.leaf)
        assert (a.norm, a.leaf_norm) == (b.norm, b.leaf_norm)
        assert np.array_equal(a.op.matrix, b.op.matrix)
    assert np.array_equal(branch_sum(got, M).matrix, branch_sum(want, M).matrix)


class RatioRecorder(expansion._Expander):
    """Oracle expander: its measured constant is the largest ratio over
    every commutator map it applies, not the maxima threaded through the
    memo."""

    def __init__(self, state):
        super().__init__(state)
        self.measured_c = 0.0

    def apply_a(self, label, sub):
        branch = super().apply_a(label, sub)
        denom = self.t * self.v1_norms.get(label, 0.0) * sub.norm
        if branch is not None and denom > 0:
            self.measured_c = max(self.measured_c, branch.norm / denom)
        return branch


class TestSharedExpander:
    @pytest.mark.parametrize("d, N", [(1, 4), (2, 2)])
    def test_matches_fresh_expander_per_root(self, d, N):
        # oracle: a fresh memo per root step, as if nothing were shared
        spec, state = flow_state(d, N)
        target = spec.lat.full_rect()
        steps = enumerate_steps(spec.lat)
        fresh = []
        for root in steps:
            recorder = expansion._EXPANDERS[state] = RatioRecorder(state)
            exp = enumerate_branches(target, root, state)
            assert exp.measured_c == recorder.measured_c
            fresh.append(exp)
        expansion._EXPANDERS.pop(state)
        for root, want in zip(steps, fresh):
            assert_same_expansion(enumerate_branches(target, root, state), want, spec.M)
        assert any(exp.branches for exp in fresh)

    @pytest.mark.parametrize("d, N", [(1, 4), (2, 2)])
    def test_subtree_constant_is_its_largest_ratio(self, d, N):
        # every memo entry carries the largest ratio over the commutator
        # maps applied in its own subtree
        spec, state = flow_state(d, N)
        for root in enumerate_steps(spec.lat):
            enumerate_branches(spec.lat.full_rect(), root, state)
        memo = expansion._EXPANDERS[state].memo
        assert any(c > 0 for _, c in memo.values())
        for (level, support), (_, c) in memo.items():
            recorder = RatioRecorder(state)
            recorder.expand(level, support)
            assert c == recorder.measured_c

    def test_shared_across_targets(self):
        # targets expanded one after another on one memo match fresh ones
        spec, state = flow_state(1, 4)
        root = enumerate_steps(spec.lat)[-1]
        targets = [Rect((1,), (1,)), Rect((2,), (1,)), spec.lat.full_rect()]
        shared = [enumerate_branches(t, root, state) for t in targets]
        for target, got in zip(targets, shared):
            expansion._EXPANDERS.pop(state)
            assert_same_expansion(got, enumerate_branches(target, root, state), spec.M)

    def test_one_expander_per_state_dropped_with_it(self):
        spec, state = flow_state(1, 3)
        _, twin = flow_state(1, 3)
        root = enumerate_steps(spec.lat)[-1]
        a = enumerate_branches(spec.lat.full_rect(), root, state)
        b = enumerate_branches(spec.lat.full_rect(), root, twin)
        assert_same_expansion(a, b, spec.M)
        expander = weakref.ref(expansion._EXPANDERS[state])
        assert expansion._EXPANDERS[twin] is not expander()
        del state
        gc.collect()
        assert expander() is None
        assert twin in expansion._EXPANDERS

    def test_returned_list_does_not_alias_memo(self):
        spec, state = flow_state(1, 3)
        root = enumerate_steps(spec.lat)[-1]
        first = enumerate_branches(spec.lat.full_rect(), root, state)
        count = len(first.branches)
        assert count
        first.branches.clear()
        assert len(enumerate_branches(spec.lat.full_rect(), root, state).branches) == count


class DenseNormExpander(expansion._Expander):
    """Oracle expander: the same rotation as the package's, but every
    rotated branch is normed from its dense operator by ``hermitian_norm``
    (``eigvalsh``) instead of from the rotation's low-rank border, and no
    sub-branch is skipped by ``rotation_delta_bound``: equal branch lists
    show that every skipped rotation would have been pruned."""

    def apply_a(self, label, sub):
        x = sub.op
        if label not in self.generators or not label.overlaps(x.support):
            return None
        common = minimal_rectangle(label, x.support)
        out = rotation_delta(embed(x, common), label, self.generators[label])
        out = LocalOp(common, out, x.M)
        nrm = hermitian_norm(out)
        if nrm <= expansion.BRANCH_PRUNE_NORM:
            return None
        return expansion.Branch((label,) + sub.labels, sub.leaf, sub.leaf_norm, out, nrm)


class TestBorderNormOracle:
    # d=1 N=6 over the whole lattice (the branch totals over all root steps
    # are pinned); d=2 N=3 over its two 3x2 rectangles, since its 512-dim
    # lattice takes minutes to expand
    @pytest.mark.parametrize(
        "d, N, t, seed, branches",
        [
            (1, 6, 0.05, 1, 1733),
            (1, 6, 0.05, 2, 2136),
            (1, 6, 0.05, 3, 1577),
            (2, 3, 0.02, 1, None),
        ],
    )
    def test_matches_dense_norm_expander(self, d, N, t, seed, branches):
        spec = random_model(LatticeSpec(d, N), 2, t, seed=seed)
        state = run_flow(spec, j_max=12, check_consistency="never", keep_history=True)
        if d == 1:
            targets = [spec.lat.full_rect()]
        else:
            targets = [Rect((2, 1), (1, 1)), Rect((1, 2), (1, 1))]
        cases = [(target, root) for target in targets for root in enumerate_steps(spec.lat)]
        got = [enumerate_branches(target, root, state) for target, root in cases]
        expansion._EXPANDERS[state] = DenseNormExpander(state)
        want = [enumerate_branches(target, root, state) for target, root in cases]
        assert any(exp.branches for exp in got)
        if branches is not None:
            assert sum(len(exp.branches) for exp in got) == branches
        for g, w in zip(got, want):
            assert [(b.labels, b.leaf) for b in g.branches] == [
                (b.labels, b.leaf) for b in w.branches
            ]
            for a, b in zip(g.branches, w.branches):
                assert a.leaf_norm == b.leaf_norm
                assert np.array_equal(a.op.matrix, b.op.matrix)
                assert abs(a.norm - b.norm) <= 1e-13 * b.norm
            assert abs(g.measured_c - w.measured_c) <= 1e-12 * w.measured_c
            assert g.min_size_ratio == w.min_size_ratio


class TestDecomposeComponents:
    def test_single_component(self):
        rects = [Rect((1,), (q,)) for q in (1, 2, 3)]
        decomp = decompose_components(rects)
        assert decomp.counts() == {1: [3]}

    def test_two_components_linked_by_bigger_rectangle(self):
        # the two edges share no site; the spanning rectangle connects them
        rects = [Rect((1,), (1,)), Rect((1,), (3,)), Rect((3,), (1,))]
        decomp = decompose_components(rects)
        assert sorted(len(c) for c in decomp.components[1]) == [1, 1]
        assert len(decomp.components[3]) == 1

    def test_disconnected_input_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            decompose_components([Rect((1,), (1,)), Rect((1,), (4,))])

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(40)
        lat = LatticeSpec(2, 4)
        for _ in range(100):
            fam = random_connected_family(rng, lat, int(rng.integers(2, 9)))
            decomp = decompose_components(fam)
            for rho, comps in decomp.components.items():
                same_size = [r for r in fam if r.circumference == rho]
                assert union_find_components(same_size) == len(comps)


class TestClosedPath:
    def test_single_rectangle(self):
        path = closed_path([Rect((1,), (1,))])
        assert path.length == 0 and path.is_closed

    def test_two_rectangles(self):
        a, b = Rect((1,), (1,)), Rect((1,), (2,))
        path = closed_path([a, b])
        assert path.seq == [a, b, a]
        assert path.length == 2

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="one circumference"):
            closed_path([Rect((1,), (1,)), Rect((2,), (1,))])

    def test_random_families(self):
        rng = np.random.default_rng(41)
        lat = LatticeSpec(2, 4)
        for _ in range(100):
            circ = int(rng.integers(1, 4))
            fam = random_connected_family(rng, lat, int(rng.integers(1, 9)), circ=circ)
            path = closed_path(fam)
            assert path.length == 2 * len(fam) - 2
            assert path.support == set(fam)
            assert path.is_closed
            for a, b in path.steps:
                assert a != b and a.overlaps(b)


def crossing_steps(path, members):
    inbound, outbound = 0, 0
    for a, b in path.steps:
        if b in members and a not in members and a.circumference < b.circumference:
            inbound += 1
        if a in members and b not in members and a.circumference > b.circumference:
            outbound += 1
    return inbound, outbound


def assert_gamma_properties(path, decomp):
    all_rects_set = {
        r for comps in decomp.components.values() for c in comps for r in c
    }
    assert path.support == all_rects_set  # property A
    total = decomp.total()
    assert path.length <= 2 * total - 2
    for rho, comps in decomp.components.items():
        for comp in comps:
            members = set(comp)
            intra = sum(1 for a, b in path.steps if a in members and b in members)
            assert intra <= 2 * len(comp) - 2  # property B
            inbound, outbound = crossing_steps(path, members)
            assert inbound <= 1 and outbound <= 1  # property C


class TestBuildGamma:
    def test_single_component_reduces_to_closed_path(self):
        fam = [Rect((1,), (q,)) for q in (1, 2, 3)]
        decomp = decompose_components(fam)
        path = build_gamma(decomp)
        assert path.support == set(fam)
        assert path.length == 2 * 3 - 2

    def test_two_sizes_by_inspection(self):
        small = Rect((1,), (1,))
        big = Rect((2,), (1,))
        decomp = decompose_components([small, big])
        path = build_gamma(decomp)
        assert_gamma_properties(path, decomp)
        assert path.seq == [small, big, small]

    def test_random_families(self):
        rng = np.random.default_rng(42)
        lat = LatticeSpec(2, 4)
        done = 0
        while done < 100:
            # grow sizes upward so every size level stays attached below
            fam = random_connected_family(rng, lat, int(rng.integers(1, 5)), circ=1)
            for circ in (2, 3):
                extra = [
                    r
                    for r in all_rects(lat, min_circ=circ)
                    if r.circumference == circ and any(r.overlaps(f) for f in fam)
                ]
                rng.shuffle(extra)
                fam.extend(extra[: rng.integers(0, 3)])
            decomp = decompose_components(fam)
            path = build_gamma(decomp)
            assert_gamma_properties(path, decomp)
            done += 1

    def test_branch_rect_sets_from_expansion(self):
        spec, state = flow_state(2, 2)
        steps = enumerate_steps(spec.lat)
        checked = 0
        for root in steps:
            exp = enumerate_branches(spec.lat.full_rect(), root, state)
            for b in exp.branches:
                fam = list(dict.fromkeys(b.rects))
                decomp = decompose_components(fam)
                if len(decomp.components[min(decomp.components)]) != 1:
                    continue  # construction needs one lowest-size component
                path = build_gamma(decomp)
                assert_gamma_properties(path, decomp)
                checked += 1
        assert checked >= 5


class TestDirectionCount:
    def test_d1_unit_intervals_oracle(self):
        # exhaustive scan: a unit interval overlaps its two shifted copies
        lat = LatticeSpec(1, 8)
        got = direction_count(1, 1, 1, lat)
        brute = 0
        pool = [r for r in all_rects(lat) if r.circumference == 1]
        for a in pool:
            brute = max(brute, sum(1 for b in pool if b != a and a.overlaps(b)))
        assert got == brute == 2

    def test_monotone_in_s(self):
        lat = LatticeSpec(1, 9)
        counts = [direction_count(s, 2, 1, lat) for s in range(1, 5)]
        assert counts == sorted(counts)

    def test_ratio_against_size_power(self):
        # measured prefactor for count / (s^d s'^{d-1}) stays bounded
        lat = LatticeSpec(2, 7)
        worst = 0.0
        for s in range(1, 5):
            for sp in range(1, 5):
                ratio = direction_count(s, sp, 2, lat) / (s**2 * sp)
                worst = max(worst, ratio)
        assert worst <= 40.0


class TestPathOfRects:
    def test_rejects_repeats(self):
        r = Rect((1,), (1,))
        with pytest.raises(ValueError, match="must differ"):
            PathOfRects([r, r])

    def test_rejects_disjoint_steps(self):
        with pytest.raises(ValueError, match="must overlap"):
            PathOfRects([Rect((1,), (1,)), Rect((1,), (3,))])
