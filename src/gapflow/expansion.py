"""Tree re-expansion of effective potentials and paths over rectangle families.

A stored potential is unfolded backwards through the flow: at each earlier
step it either passed through unchanged, or it was assembled from a
commutator series applied to the potentials of its growth channels. Each
surviving term of that unfolding is a branch: an ordered list of generator
rectangles applied to one leaf potential. Branches are the countable
objects the norm bookkeeping (weights, paths, component decompositions)
is built on. Every rotation by a step goes through that step's
``schwinger.RotationPlane``, built once per expander. A term whose
rotation the plane's a-priori bound (``RotationPlane.bound_factor``)
already puts at or below ``flow.PRUNE_THRESHOLD`` is dropped before it is
rotated. The rest are rotated in stacks: one step's sub-branches of one
support at a time, made dense, embedded, rotated and normed together.

A rotated branch u A u^+ - A has rank at most 4 n / n_J for its support
dimension n and the step rectangle J, and is kept as its ``Border`` of
2 n^2 / n_J numbers, never as its dense n x n matrix: the dense form is
made on demand, when the branch is rotated again or summed.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .flow import PRUNE_THRESHOLD, FlowState
from .geometry import LatticeSpec, Rect, all_rects, enumerate_steps, g_set, minimal_rectangle
from .schwinger import border_delta, rotation_border_norm, rotation_plane
from .tensor import LocalOp, embed, embedded_sum

# bytes of one stack of embedded sub-branches rotated at once; the rotation
# holds a few temporaries of that size, so the cap bounds its transient
# memory whatever the number of sub-branches of one support
STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class Border:
    """The operator B C + C^+ B^+ on ``support``, for B = I_rest (x) P with
    J's legs last: the form ``schwinger.rotation_border_norm`` gives a
    rotation u A u^+ - A by the step generator on J. ``p`` is the plane
    factor P of J's generator, shared by every border of that step, and
    ``c`` the 2 n / n_J x n factor C."""

    support: Rect
    J: Rect
    p: np.ndarray
    c: np.ndarray
    M: int

    def dense(self) -> LocalOp:
        """The operator as a fresh dense ``LocalOp``."""
        return LocalOp(
            self.support, border_delta(self.support, self.M, self.J, self.p, self.c), self.M
        )


def _dense_stack(forms: list[LocalOp | Border]) -> LocalOp:
    """The dense forms of branch operators on one support, in order, as one
    stacked ``LocalOp``. Borders of one step J share their plane factor P,
    so each J's borders are made dense together; when all forms are of one
    kind, that stack is the result."""
    support, M = forms[0].support, forms[0].M
    kinds: dict[Rect | None, list[int]] = defaultdict(list)
    for i, form in enumerate(forms):
        kinds[form.J if isinstance(form, Border) else None].append(i)

    def dense(J: Rect | None, rows: list[int]) -> np.ndarray:
        if J is None:
            return np.stack([forms[i].matrix for i in rows])
        c = np.stack([forms[i].c for i in rows])
        return border_delta(support, M, J, forms[rows[0]].p, c)

    if len(kinds) == 1:
        return LocalOp(support, dense(*next(iter(kinds.items()))), M)
    dim = M**support.n_sites
    stack = np.empty((len(forms), dim, dim), dtype=complex)
    for J, rows in kinds.items():
        stack[rows] = dense(J, rows)
    return LocalOp(support, stack, M)


@dataclass
class Branch:
    """One term of the re-expansion.

    ``labels`` are the generator rectangles, outermost application first
    (strictly descending in the flow order); ``leaf`` is the support of the
    potential the commutator maps act on. ``form`` is the branch operator:
    a leaf's stored ``LocalOp``, or a rotated branch's ``Border``. ``norm``
    is the operator norm of that operator, taken once when the branch is
    made.
    """

    labels: tuple[Rect, ...]
    leaf: Rect
    leaf_norm: float
    form: LocalOp | Border
    norm: float

    @property
    def support(self) -> Rect:
        return self.form.support

    @property
    def op(self) -> LocalOp:
        """The branch operator as a ``LocalOp``. A border's dense form is
        made anew on every read and never kept."""
        return self.form.dense() if isinstance(self.form, Border) else self.form

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


def decompose_components(rects) -> dict[int, list[list[Rect]]]:
    """Group by circumference, split each group into overlap components: the
    map from circumference to that size's components."""
    rects = list(rects)
    if not is_connected_family(rects):
        raise ValueError("rectangle family is not connected")
    by_size: dict[int, list[Rect]] = defaultdict(list)
    for r in rects:
        by_size[r.circumference].append(r)
    return {rho: _overlap_components(group) for rho, group in by_size.items()}


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

    def tour(u: Rect) -> list[Rect]:
        out = [u]
        for v in children[u]:
            out.extend(tour(v))
            out.append(u)
        return out

    return PathOfRects(tour(start))


def build_gamma(components: dict[int, list[list[Rect]]]) -> PathOfRects:
    """Path visiting every rectangle with the per-component step budget.

    Sizes are processed upward from the smallest; each new component is
    spliced in as a closed excursion at the first rectangle of the current
    path that overlaps it (one step out, one step back).
    """
    sizes = sorted(components)
    if not sizes:
        raise ValueError("empty decomposition")
    lowest = components[sizes[0]]
    if len(lowest) != 1:
        raise ValueError(
            f"expected exactly one component at the lowest size, got {len(lowest)}"
        )
    seq = closed_path(lowest[0]).seq
    for rho in sizes[1:]:
        for comp in components[rho]:
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


def direction_count(s: int, s_prime: int, lat: LatticeSpec) -> int:
    """Exact maximum number of distinct rectangles of circumference s' that
    overlap a rectangle of circumference s, by exhaustive scan."""
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
        self.lat = state.spec.lat
        self.steps = enumerate_steps(self.lat)
        self.initial_map = state.initial_map
        self.case_b = {rec.rect: rec.v_diag_total for rec in state.history}
        # each step's rotation plane, taken once for all its rotations
        self.planes = {
            rec.rect: rotation_plane(rec.generator) for rec in state.history if not rec.skipped
        }
        self.memo: dict[tuple[int, Rect], tuple[list[Branch], float]] = {}
        self.t = state.spec.t
        self.M = state.spec.M
        self.v1_norms = {
            rec.rect: rec.v1_norm for rec in state.history if not rec.skipped
        }

    def rotate(self, step: Rect, subs: list[Branch]) -> list[Branch | None]:
        """Each sub-branch one level up: the commutator series of the step
        generator applied to its operator, kept as its ``Border``, or None
        where it is pruned. A sub-branch disjoint from the step, or whose
        rotation bound (``plane.bound_factor * sub.norm``) is already at or
        below the prune threshold, is neither made dense nor rotated. The
        others are grouped by support and rotated and normed as stacks of
        at most ``STACK_BYTES`` once embedded; each kept C is copied out of
        its stack, so no branch holds the stack alive."""
        out: list[Branch | None] = [None] * len(subs)
        plane = self.planes.get(step)
        if plane is None:
            return out
        groups: dict[Rect, list[int]] = defaultdict(list)
        for i, sub in enumerate(subs):
            if step.overlaps(sub.support) and plane.bound_factor * sub.norm > PRUNE_THRESHOLD:
                groups[sub.support].append(i)
        for support, rows in groups.items():
            into = minimal_rectangle(step, support)
            size = max(1, STACK_BYTES // (16 * self.M ** (2 * into.n_sites)))
            for lo in range(0, len(rows), size):
                part = rows[lo : lo + size]
                x = embed(_dense_stack([subs[i].form for i in part]), into)
                cs, norms = rotation_border_norm(x, step, plane)
                for i, c, nrm in zip(part, cs, norms.tolist()):
                    if nrm > PRUNE_THRESHOLD:
                        sub = subs[i]
                        border = Border(into, step, plane.p, c.copy(), self.M)
                        out[i] = Branch(
                            (step,) + sub.labels, sub.leaf, sub.leaf_norm, border, nrm
                        )
        return out

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
                members = g_set(step, support) | {support}
                subs = []
                for member in sorted(members, key=lambda r: (r.k, r.q)):
                    member_subs, c_sub = self.expand(level - 1, member)
                    c = max(c, c_sub)
                    subs += member_subs
                for sub, branch in zip(subs, self.rotate(step, subs)):
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
    if not target.fits(flow_history.spec.lat):
        raise ValueError(f"target {target} does not fit the flow's lattice")
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
    """Sum of all branch operators, embedded on the expansion target.

    Borders of one step J and one support share B, and B C + C^+ B^+ is
    linear in C, so each such group sums its C factors and is made dense
    and embedded once. The terms stream into the sum: leaves first, in
    branch order, then one group at a time in order of first appearance,
    so at most one group is dense at once.
    """
    leaves: list[tuple[float, LocalOp]] = []
    groups: dict[tuple[Rect, Rect], Border] = {}
    for b in expansion.branches:
        form = b.form
        if not isinstance(form, Border):
            leaves.append((1.0, form))
        elif (form.J, form.support) in groups:
            total = groups[form.J, form.support].c
            total += form.c
        else:
            groups[form.J, form.support] = replace(form, c=form.c.copy())
    dense = ((1.0, group.dense()) for group in groups.values())
    return embedded_sum(chain(leaves, dense), expansion.target, M)


def weighted_branch_sum(
    expansion: BranchExpansion,
    t: float,
    v1_norms: dict[Rect, float],
) -> tuple[float, float]:
    """(sum of branch-operator norms, weighted path bound); lhs <= rhs.

    Each generator rectangle contributes c*t times the norm of the
    potential its step consumed, for the constant c measured during the
    expansion (``measured_c``); the leaf contributes its own norm.
    """
    cc = expansion.measured_c
    lhs = 0.0
    rhs = 0.0
    for b in expansion.branches:
        lhs += b.norm
        w = b.leaf_norm
        for label in b.labels:
            w *= cc * t * v1_norms[label]
        rhs += w
    return lhs, rhs
