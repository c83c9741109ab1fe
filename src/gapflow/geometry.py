"""Rectangle combinatorics on a finite d-dimensional lattice.

Everything here is pure integer bookkeeping: axis-aligned rectangles
(possibly degenerate, down to single points), the strict total order that
drives the block-diagonalization flow, minimal enclosing rectangles, and
the growth-channel families used by the flow and the re-expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb


@dataclass(frozen=True)
class LatticeSpec:
    """Finite lattice with ``N`` vertices per side in ``d`` dimensions."""

    d: int
    N: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {self.d}")
        if self.N < 2:
            raise ValueError(f"side vertex count must be >= 2, got {self.N}")

    @property
    def n_sites(self) -> int:
        return self.N**self.d

    def full_rect(self) -> "Rect":
        """The rectangle covering the whole lattice."""
        return Rect((self.N - 1,) * self.d, (1,) * self.d)

    def sites(self) -> list[tuple[int, ...]]:
        return [tuple(c) for c in product(range(1, self.N + 1), repeat=self.d)]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: side lengths ``k`` and base corner ``q`` (1-based).

    Zero side lengths are allowed, so points, edges and slabs are ordinary
    Rect values. The j-th extent is the closed integer range
    ``[q_j, q_j + k_j]``.
    """

    k: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        object.__setattr__(self, "q", tuple(int(x) for x in self.q))
        if len(self.k) != len(self.q):
            raise ValueError(f"k and q must have equal length: {self.k} vs {self.q}")
        if any(x < 0 for x in self.k):
            raise ValueError(f"side lengths must be nonnegative: {self.k}")
        if any(x < 1 for x in self.q):
            raise ValueError(f"base coordinates are 1-based: {self.q}")

    @property
    def d(self) -> int:
        return len(self.k)

    @property
    def circumference(self) -> int:
        """Sum of the side lengths."""
        return sum(self.k)

    @property
    def n_sites(self) -> int:
        n = 1
        for kj in self.k:
            n *= kj + 1
        return n

    def fits(self, lat: LatticeSpec) -> bool:
        return self.d == lat.d and all(
            qj + kj <= lat.N for qj, kj in zip(self.q, self.k)
        )

    def sites(self) -> list[tuple[int, ...]]:
        """All lattice sites in the rectangle, lexicographically sorted."""
        ranges = [range(qj, qj + kj + 1) for qj, kj in zip(self.q, self.k)]
        return [tuple(c) for c in product(*ranges)]

    def contains(self, other: "Rect") -> bool:
        """True iff ``other`` is contained in self (not necessarily strictly)."""
        return all(
            qj <= oq and oq + ok <= qj + kj
            for qj, kj, oq, ok in zip(self.q, self.k, other.q, other.k)
        )

    def overlaps(self, other: "Rect") -> bool:
        """True iff the two rectangles share at least one lattice site."""
        return all(
            max(q1, q2) <= min(q1 + k1, q2 + k2)
            for k1, q1, k2, q2 in zip(self.k, self.q, other.k, other.q)
        )


def compare_step(a: Rect, b: Rect) -> int:
    """Flow-order comparison: +1 if ``a`` succeeds ``b``, -1 if ``b`` succeeds ``a``, 0 if equal.

    Three clauses, applied in order: larger circumference succeeds; at equal
    circumference the rectangle whose first differing side length is smaller
    succeeds; at equal shape the rectangle whose last differing base
    coordinate is larger succeeds.
    """
    ka, kb = step_sort_key(a), step_sort_key(b)
    return (ka > kb) - (ka < kb)


def step_sort_key(r: Rect) -> tuple:
    """Sort key encoding the flow order that ``compare_step`` describes."""
    return (r.circumference, tuple(-x for x in r.k), tuple(reversed(r.q)))


def all_rects(lat: LatticeSpec, min_circ: int = 0) -> list[Rect]:
    """Every rectangle fitting in the lattice with circumference >= ``min_circ``."""
    out = []
    side = range(lat.N)
    for k in product(side, repeat=lat.d):
        if sum(k) < min_circ:
            continue
        q_ranges = [range(1, lat.N - kj + 1) for kj in k]
        for q in product(*q_ranges):
            out.append(Rect(k, q))
    return out


@lru_cache(maxsize=32)
def _enumerate_steps_cached(d: int, N: int) -> tuple[Rect, ...]:
    lat = LatticeSpec(d, N)
    return tuple(sorted(all_rects(lat, min_circ=1), key=step_sort_key))


def enumerate_steps(lat: LatticeSpec) -> list[Rect]:
    """All block-diagonalization steps (|k| >= 1) in ascending flow order."""
    return list(_enumerate_steps_cached(lat.d, lat.N))


def minimal_rectangle(a: Rect, b: Rect) -> Rect:
    """Smallest rectangle containing two overlapping rectangles."""
    if not a.overlaps(b):
        raise ValueError(f"no minimal rectangle defined for disjoint {a} and {b}")
    q = tuple(min(qa, qb) for qa, qb in zip(a.q, b.q))
    hi = tuple(
        max(qa + ka, qb + kb) for ka, qa, kb, qb in zip(a.k, a.q, b.k, b.q)
    )
    return Rect(tuple(h - lo for h, lo in zip(hi, q)), q)


def g_set(inner: Rect, target: Rect, lat: LatticeSpec) -> set[Rect]:
    """Growth channels: rectangles J' != target with [inner u J'] = target.

    Candidates must overlap ``inner`` (the minimal rectangle is only defined
    for overlapping pairs) and fit inside ``target``'s bounding box.
    """
    if not (target.contains(inner) and inner != target):
        raise ValueError(f"{inner} is not strictly contained in {target}")
    found = set()
    for k in product(*(range(tk + 1) for tk in target.k)):
        q_ranges = [
            range(tq, tq + tk - kj + 1) for tq, tk, kj in zip(target.q, target.k, k)
        ]
        for q in product(*q_ranges):
            cand = Rect(k, q)
            if cand == target or not cand.overlaps(inner):
                continue
            if minimal_rectangle(inner, cand) == target:
                found.add(cand)
    return found


def count_shapes(l: int, d: int) -> int:
    """Number of side-length vectors with |k| = l in d dimensions."""
    if l < 0:
        raise ValueError(f"circumference must be nonnegative, got {l}")
    return comb(l + d - 1, d - 1)
