"""Tree re-expansion of effective potentials and paths over rectangle families.

A stored potential is unfolded backwards through the flow: at each earlier
step it either passed through unchanged, or it was assembled from a
commutator series applied to the potentials of its growth channels. Each
surviving term of that unfolding is a branch: an ordered list of generator
rectangles applied to one leaf potential. Branches are the countable
objects the norm bookkeeping (weights, paths, component decompositions)
is built on. A term whose rotation ``schwinger.rotation_delta_bound``
already puts at or below the prune norm is dropped before it is rotated.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass

from .flow import FlowState
from .geometry import LatticeSpec, Rect, enumerate_steps, g_set, minimal_rectangle
from .schwinger import rotation_delta_bound, rotation_delta_norm
from .tensor import LocalOp, embed, embedded_sum

BRANCH_PRUNE_NORM = 1e-14


@dataclass
class Branch:
    """One term of the re-expansion.

    ``labels`` are the generator rectangles, outermost application first
    (strictly descending in the flow order); ``leaf`` is the support of the
    potential the commutator maps act on. ``norm`` is the operator norm of
    ``op``, taken once when the branch is made.
    """

    labels: tuple[Rect, ...]
    leaf: Rect
    leaf_norm: float
    op: LocalOp
    norm: float

    @property
    def rects(self) -> tuple[Rect, ...]:
        """Role-ordered rectangle sequence: labels then leaf."""
        return self.labels + (self.leaf,)

    @property
    def rect_set(self) -> frozenset[Rect]:
        return frozenset(self.rects)


@dataclass
class BranchExpansion:
    target: Rect
    root_step: Rect
    branches: list[Branch]
    measured_c: float
    min_size_ratio: float | None  # empirical min of |R_b| * k / r over branches


@dataclass
class PathOfRects:
    """Sequence of pairwise-overlapping, consecutively distinct rectangles."""

    seq: list[Rect]

    def __post_init__(self) -> None:
        for a, b in zip(self.seq, self.seq[1:]):
            if a == b:
                raise ValueError("consecutive path rectangles must differ")
            if not a.overlaps(b):
                raise ValueError(f"consecutive path rectangles must overlap: {a}, {b}")

    @property
    def steps(self) -> list[tuple[Rect, Rect]]:
        return list(zip(self.seq, self.seq[1:]))

    @property
    def length(self) -> int:
        return len(self.seq) - 1

    @property
    def support(self) -> set[Rect]:
        return set(self.seq)

    @property
    def is_closed(self) -> bool:
        return len(self.seq) >= 1 and self.seq[0] == self.seq[-1]


@dataclass
class ComponentDecomposition:
    """Same-size connected components of a rectangle family, by circumference."""

    components: dict[int, list[list[Rect]]]

    @property
    def sizes(self) -> list[int]:
        return sorted(self.components)

    def counts(self) -> dict[int, list[int]]:
        return {rho: [len(c) for c in comps] for rho, comps in self.components.items()}

    def total(self) -> int:
        return sum(len(c) for comps in self.components.values() for c in comps)


def _overlap_components(rects: list[Rect]) -> list[list[Rect]]:
    """Connected components of the shared-site overlap graph."""
    remaining = list(rects)
    comps = []
    while remaining:
        frontier = [remaining.pop()]
        comp = []
        while frontier:
            cur = frontier.pop()
            comp.append(cur)
            still = []
            for other in remaining:
                if cur.overlaps(other):
                    frontier.append(other)
                else:
                    still.append(other)
            remaining = still
        comps.append(comp)
    return comps


def is_connected_family(rects) -> bool:
    rects = list(rects)
    return len(_overlap_components(rects)) <= 1


def decompose_components(rects) -> ComponentDecomposition:
    """Group by circumference, split each group into overlap components."""
    rects = list(rects)
    if not is_connected_family(rects):
        raise ValueError("rectangle family is not connected")
    by_size: dict[int, list[Rect]] = defaultdict(list)
    for r in rects:
        by_size[r.circumference].append(r)
    return ComponentDecomposition(
        {rho: _overlap_components(group) for rho, group in by_size.items()}
    )


def closed_path(rects, root: Rect | None = None) -> PathOfRects:
    """Closed path over a same-size connected family with length 2n - 2.

    The path is the double traversal of a spanning tree of the overlap
    graph, so every rectangle is visited and every step is an overlap.
    """
    rects = list(dict.fromkeys(rects))
    if not rects:
        raise ValueError("empty rectangle family")
    sizes = {r.circumference for r in rects}
    if len(sizes) != 1:
        raise ValueError(f"rectangles must share one circumference, got {sorted(sizes)}")
    if not is_connected_family(rects):
        raise ValueError("rectangle family is not connected")
    start = root if root is not None else rects[0]
    if start not in rects:
        raise ValueError("root must belong to the family")
    children: dict[Rect, list[Rect]] = {r: [] for r in rects}
    seen = {start}
    order = [start]
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for other in rects:
            if other not in seen and cur.overlaps(other):
                seen.add(other)
                children[cur].append(other)
                queue.append(other)
    if len(seen) != len(rects):
        raise ValueError("rectangle family is not connected")

    def tour(u: Rect) -> list[Rect]:
        out = [u]
        for v in children[u]:
            out.extend(tour(v))
            out.append(u)
        return out

    return PathOfRects(tour(start))


def build_gamma(decomp: ComponentDecomposition) -> PathOfRects:
    """Path visiting every rectangle with the per-component step budget.

    Sizes are processed upward from the smallest; each new component is
    spliced in as a closed excursion at the first rectangle of the current
    path that overlaps it (one step out, one step back).
    """
    sizes = decomp.sizes
    if not sizes:
        raise ValueError("empty decomposition")
    lowest = decomp.components[sizes[0]]
    if len(lowest) != 1:
        raise ValueError(
            f"expected exactly one component at the lowest size, got {len(lowest)}"
        )
    seq = closed_path(lowest[0]).seq
    for rho in sizes[1:]:
        for comp in decomp.components[rho]:
            spot = None
            for i, x in enumerate(seq):
                hit = next((y for y in comp if x.overlaps(y)), None)
                if hit is not None:
                    spot = (i, hit)
                    break
            if spot is None:
                raise ValueError(
                    f"component of size {rho} never touches the smaller-size path"
                )
            i, y = spot
            excursion = closed_path(comp, root=y).seq
            seq = seq[: i + 1] + excursion + seq[i:]
    return PathOfRects(seq)


def direction_count(s: int, s_prime: int, d: int, lat: LatticeSpec) -> int:
    """Exact maximum number of distinct rectangles of circumference s' that
    overlap a rectangle of circumference s, by exhaustive scan."""
    from .geometry import all_rects

    pool = all_rects(lat)
    of_s = [r for r in pool if r.circumference == s]
    of_sp = [r for r in pool if r.circumference == s_prime]
    if not of_s or not of_sp:
        raise ValueError(f"no rectangles of the requested sizes fit in N={lat.N}")
    best = 0
    for a in of_s:
        count = sum(1 for b in of_sp if b != a and a.overlaps(b))
        best = max(best, count)
    return best


class _Expander:
    """Backward unfolding of the stored potentials of one flow.

    The memo key (level, support) depends on neither the root step nor the
    target, so one expander serves every expansion of its flow state.
    """

    def __init__(self, state: FlowState):
        if state.initial_map is None:
            raise ValueError("flow state is missing its initial interaction map")
        self.lat = state.spec.lat
        self.steps = enumerate_steps(self.lat)
        self.initial_map = state.initial_map
        self.case_b = {rec.rect: rec.case_b_value for rec in state.history}
        self.generators = {rec.rect: rec.generator for rec in state.history if not rec.skipped}
        self.memo: dict[tuple[int, Rect], tuple[list[Branch], float]] = {}
        self.t = state.spec.t
        self.v1_norms = {
            rec.rect: rec.v1_norm for rec in state.history if not rec.skipped
        }

    def apply_a(self, label: Rect, sub: Branch) -> Branch | None:
        """The branch one level up: the commutator series of the step
        generator applied to the branch operator; None if it would be
        pruned. A sub-branch whose ``rotation_delta_bound`` is already at or
        below the prune norm is neither embedded nor rotated."""
        x = sub.op
        if label not in self.generators:
            return None
        if not label.overlaps(x.support):
            return None
        if rotation_delta_bound(self.generators[label], sub.norm) <= BRANCH_PRUNE_NORM:
            return None
        common = minimal_rectangle(label, x.support)
        out, nrm = rotation_delta_norm(embed(x, common), label, self.generators[label])
        if nrm <= BRANCH_PRUNE_NORM:
            return None
        result = LocalOp(common, out, x.M)
        return Branch((label,) + sub.labels, sub.leaf, sub.leaf_norm, result, nrm)

    def leaf(self, support: Rect, op: LocalOp | None) -> list[Branch]:
        if op is None:
            return []
        return [Branch((), support, op.norm, op, op.norm)]

    def expand(self, level: int, support: Rect) -> tuple[list[Branch], float]:
        """Branches of the potential on ``support`` as of step ``level``, and
        the largest ratio ||A(x)|| / (t ||V_J|| ||x||) over the commutator
        maps applied in that subtree (0 if none)."""
        key = (level, support)
        if key in self.memo:
            return self.memo[key]
        c = 0.0
        if level < 0:
            out = self.leaf(support, self.initial_map.get(support))
        elif self.steps[level] == support:
            out = self.leaf(support, self.case_b.get(support))
        else:
            step = self.steps[level]
            below, c = self.expand(level - 1, support)
            out = list(below)
            if support.contains(step):
                members = g_set(step, support, self.lat) | {support}
                for member in sorted(members, key=lambda r: (r.k, r.q)):
                    subs, c_sub = self.expand(level - 1, member)
                    c = max(c, c_sub)
                    for sub in subs:
                        branch = self.apply_a(step, sub)
                        if branch is None:
                            continue
                        out.append(branch)
                        denom = self.t * self.v1_norms.get(step, 0.0) * sub.norm
                        if denom > 0:
                            c = max(c, branch.norm / denom)
        self.memo[key] = (out, c)
        return out, c


# one expander per flow state, dropped with the state; a FlowState hashes
# by identity and is never mutated once expanded
_EXPANDERS: weakref.WeakKeyDictionary[FlowState, _Expander] = weakref.WeakKeyDictionary()


def enumerate_branches(
    target: Rect,
    root_step: Rect,
    flow_history: FlowState,
) -> BranchExpansion:
    """All nonzero branches of the stored potential on ``target`` as of the
    completion of ``root_step``."""
    try:
        root_idx = enumerate_steps(flow_history.spec.lat).index(root_step)
    except ValueError:
        raise ValueError(f"{root_step} is not a flow step") from None
    if root_idx >= len(flow_history.history):
        raise ValueError(f"flow has not completed step {root_step}")
    expander = _EXPANDERS.get(flow_history)
    if expander is None:
        expander = _EXPANDERS[flow_history] = _Expander(flow_history)
    branches, measured_c = expander.expand(root_idx, target)
    ratios = [
        len(b.rect_set) * root_step.circumference / target.circumference
        for b in branches
        if b.labels
    ]
    return BranchExpansion(
        target=target,
        root_step=root_step,
        branches=list(branches),
        measured_c=measured_c,
        min_size_ratio=min(ratios) if ratios else None,
    )


def branch_sum(expansion: BranchExpansion, M: int) -> LocalOp:
    """Sum of all branch operators, embedded on the expansion target."""
    return embedded_sum(((1.0, b.op) for b in expansion.branches), expansion.target, M)


def weighted_branch_sum(
    expansion: BranchExpansion,
    t: float,
    v1_norms: dict[Rect, float],
    c: float | None = None,
) -> tuple[float, float]:
    """(sum of branch-operator norms, weighted path bound); lhs <= rhs.

    Each generator rectangle contributes c*t times the norm of the
    potential its step consumed; the leaf contributes its own norm. ``c``
    defaults to the constant measured during the expansion.
    """
    cc = expansion.measured_c if c is None else c
    lhs = 0.0
    rhs = 0.0
    for b in expansion.branches:
        lhs += b.norm
        w = b.leaf_norm
        for label in b.labels:
            w *= cc * t * v1_norms[label]
        rhs += w
    return lhs, rhs
