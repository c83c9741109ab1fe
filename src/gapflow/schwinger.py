"""One local block-diagonalization step.

Builds the already-diagonal local operator G and its vacuum energy E, the
anti-Hermitian generator series S = sum_j t^j S_j, and the transformed
block-diagonal potential sum_j t^{j-1} (V)_j^diag. Each step measures its
truncation error exactly (the step defect, which the flow judges), and
inside the majorant radius also carries the a-priori tail of the recursive
majorant sequence B_j.

The order-j coefficients are the nested-commutator composition sums

  (V)_j = sum_{p>=2} (1/p!) sum_{r_1+..+r_p=j}   ad S_{r_1}(... ad S_{r_p}(G))
        + sum_{p>=1} (1/p!) sum_{r_1+..+r_p=j-1} ad S_{r_1}(... ad S_{r_p}(V)),

evaluated through a one-table dynamic program over (chain length, order):
indexing the V chains by total order (their parts sum to j-1) gives them
the recursion of the G chains, so one table carries both. The outermost
commutator index is r_1; all parts are at most j-1, so each order only
consumes generators already built.

The vacuum projection of the step rectangle is the rank-one E_00, so every
generator is rank two: S_j = x_j e0^+ - e0 x_j^+ with x_j orthogonal to e0,
and only the vectors x_j are kept. A commutator [S_r, T] needs only T x_r,
x_r^+ T, T e0 and e0^+ T. For T = V the other side is V e0 or V x_r. For
T = G it needs no product with G at all: G fixes the vacuum (``assemble_g``
refuses any G that does not), x_r = R b_r for the resolvent
R = (G' - e0)^-1 of the excited block and b_r the excited part of v_r e0,
so G x_r = e0 x_r + b_r and

  [S_r, G] = -(b_r e0^+ + e0 b_r^+)

exactly. So every table entry is a Hermitian operator that vanishes off
Z = span(e0, V e0, x_r, V x_r : r < j_max), of dimension
D <= min(n, 2 j_max) whatever the support dimension n, and is
stored as its D x D coordinate matrix Z^+ T Z against an orthonormal basis
of Z. In those coordinates [S, T] = W + W^+ with W = c (e0^+ T) - e0 (c^+ T)
for x = Z c, so one batched commutator gives every chain length of an order.
Per order the only O(n^2) work is one matvec with V and one with the
resolvent, inverted once per step; the rest costs O(n j_max) for the basis
and O(j_max^2 D^2) for the table. The basis and the coordinate terms stay
inside the run: a step hands back only what the flow reads.

``series_stack`` runs this for several steps of one dimension at once,
with a leading stack axis on every array: a step with n <= 2 j_max + 1
takes C^n as its basis, so such steps share one run, and a larger step
runs as a stack of one through the same code. ``lie_schwinger_series``
computes nothing: it warns about the gap of one step of that output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

import numpy as np

from .geometry import Rect
from .model import coupled
from .tensor import (
    LocalOp,
    adjoint,
    border_norm,
    embedded_sum,
    offdiag_norm,
    permute_legs,
)

GAP_FLOOR = 0.5
GAP_WARN = 0.25
GP_MINUS_TOL = 1e-10
# a vector (V e0, x_r or V x_r) whose part outside the series basis
# built so far is at most this fraction of its norm lies in that span to
# rounding and adds no column
BASIS_DEPENDENCE_TOL = 1e-14
# chain-table memory of one stacked series run (see ``stack_limit``)
STACK_TABLE_BYTES = 1 << 23


class GapError(RuntimeError):
    """Raised when an already-diagonal local operator loses its gap."""


MAJORANT_A = 0.023320199830777617
"""The majorant constant a: the root of (e^{8a} - 8a - 1)/a + e^{8a} - 1 = 1,
to the last bit of a double (0x1.7e1401e6fffe5p-6)."""


def majorants(v1_norm: float, n: int) -> list[float]:
    """The recursive majorants B_1 .. B_n of the step series:
    B_1 = ``v1_norm`` = ||v1||, B_j = (1/a) sum_{l<j} B_{j-l} B_l with
    a = ``MAJORANT_A``."""
    if v1_norm <= 0:
        raise ValueError("v1_norm must be positive")
    b = [v1_norm]
    for j in range(2, n + 1):
        b.append(sum(b[j - l - 1] * b[l - 1] for l in range(1, j)) / MAJORANT_A)
    return b


def radius_lower_bound(v1_norm: float) -> float:
    """a/(4 B_1): a lower bound for the convergence radius in t of the
    majorant series with B_1 = ``v1_norm``."""
    return MAJORANT_A / (4 * v1_norm)


@dataclass
class StepOperators:
    """Everything produced by one local block-diagonalization step.

    ``series_stack`` makes the series up to its truncation certificate;
    a step keeps only what the flow, its record or a tracer reads. ``g``
    is the step's already-diagonal local operator G and ``e0`` its vacuum
    energy. ``generators`` holds the vectors x_j of
    S_j = x_j e0^+ - e0 x_j^+, and ``generator`` the vector
    X = sum_j t^j x_j of the step generator S = X e0^+ - e0 X^+;
    ``generator_exponential(generator)`` is exp(S), and ``plane`` its
    ``RotationPlane``, built once for every rotation by the step.
    ``v_diag_total`` is the block-diagonal potential the step stores.
    ``od_residual`` is the off-block norm of the conjugated local operator
    u L u^+ (u = exp(S), L = G + t V for the step potential V), and
    ``step_defect`` its Frobenius distance ||u L u^+ - (G + t v_diag)||_F
    to what the step stores: the series truncation plus rounding, taken in
    O(n^2). ``tail_bound`` is the majorant tail of the truncated orders
    (see ``_series_tail``) inside the certified radius |t| < a/(4 ||V||),
    ||V|| = ``v1_norm``, and ``None`` outside it, where only
    ``step_defect`` measures the truncation.
    """

    rect: Rect
    g: LocalOp
    e0: float
    generators: list[np.ndarray]
    generator: np.ndarray
    plane: RotationPlane
    v_diag_total: LocalOp
    g_gap: float
    v1_norm: float
    s_norm: float
    od_residual: float
    step_defect: float
    tail_bound: float | None

    @property
    def tail_certified(self) -> bool:
        return self.tail_bound is not None


def assemble_g(J: Rect, interactions: dict[Rect, LocalOp], t: float) -> LocalOp:
    """Already-diagonal local operator G on J: on-site terms plus every
    strictly smaller stored potential. G fixes the vacuum, so its vacuum
    energy is G[0, 0]."""
    inner = [op for key, op in interactions.items() if J.contains(key) and key != J]
    if not inner:
        raise ValueError(f"no on-site terms found inside {J}; interaction map is incomplete")
    g = embedded_sum(coupled(inner, t), J, inner[0].M)
    _require_fixed_vacuum(J, g.matrix)
    return g


def _require_fixed_vacuum(J: Rect, g_matrix: np.ndarray) -> None:
    """Refuse a G on J that does not fix the vacuum, in O(n): the series
    needs G e0 = e0 e0 exactly. On a flow state every inner entry fixes the
    vacuum exactly, so this refuses only a G built otherwise."""
    off, imag = offdiag_norm(g_matrix), abs(g_matrix[0, 0].imag)
    if off or imag > GP_MINUS_TOL:
        raise GapError(
            f"local operator on {J} does not fix the vacuum vector (residual {max(off, imag):.3g})"
        )


def check_g_gap(g_matrix: np.ndarray) -> float | np.ndarray:
    """Spectral gap of the excited block above the vacuum energy G[0, 0] of
    a G that fixes the vacuum, of each matrix along leading stack axes.

    This is a report, not an assertion: negative values are returned.
    """
    return np.linalg.eigvalsh(g_matrix[..., 1:, 1:])[..., 0] - g_matrix[..., 0, 0].real


def _series_tail(t: float, v1_norm: float, j_max: int) -> float | None:
    """Truncation tail of a series with ||v1|| = ``v1_norm`` cut after
    ``j_max`` orders: inside the certified region
    |t| < ``radius_lower_bound(v1_norm)`` the majorant sum
    sum_{j>j_max} |t|^{j-1} B_j, otherwise ``None``. A vanishing v1 has a
    vanishing tail.

    The majorant terms are advanced through the coefficient ratio
    B_{j+1}/B_j = (2(2j-1)/(j+1)) B_1/a, which stays below 4 B_1/a, so
    neither the coefficients nor the powers are formed past B_{j_max+1}.
    """
    if v1_norm <= 0:
        return 0.0
    t = abs(t)
    rho = 4.0 * v1_norm * t / MAJORANT_A
    if not rho < 1.0:
        return None
    j = j_max + 1
    term = t ** (j - 1) * majorants(v1_norm, j)[-1]
    total = 0.0
    while True:
        total += term
        rest = term * rho / (1.0 - rho)
        if rest <= 1e-300 + 1e-16 * total:
            return total + rest
        term *= 2.0 * (2 * j - 1) / (j + 1) * v1_norm / MAJORANT_A * t
        j += 1


def generator_exponential(x: np.ndarray) -> np.ndarray:
    """exp(S) for the rank-two S = x e0^+ - e0 x^+ (x[0] = 0), in closed form.

    S^2 = -(x x^+ + theta^2 E_00) and S^3 = -theta^2 S with theta = ||x||, so
    exp(S) = I + (sin theta/theta) S + ((1 - cos theta)/theta^2) S^2
    (Rodrigues). Both coefficients are evaluated through sinc, which stays
    exact down to theta = 0.
    """
    x = np.asarray(x, dtype=complex)
    if x[0] != 0:
        raise ValueError("generator vector must be orthogonal to the vacuum")
    theta = float(np.linalg.norm(x))
    a = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2 * np.pi)) ** 2
    u = np.eye(x.size, dtype=complex)
    u[:, 0] += a * x
    u[0, :] -= a * x.conj()
    u -= b * np.outer(x, x.conj())
    u[0, 0] -= b * theta**2
    return u


@dataclass(frozen=True)
class RotationPlane:
    """The plane of u = exp(S) for S = x e0^+ - e0 x^+, taken once per
    generator x: u - I = P U^+ with ``basis`` U = [e0, x/theta] and ``p``
    P = U z for the plane rotation
    z = [[cos theta - 1, -sin theta], [sin theta, cos theta - 1]].

    ``bound_factor`` is 4 |sin(theta/2)|, the a-priori bound
    ||u A u^+ - A|| <= ``bound_factor`` ||A|| for u = exp(S) (x) I and any
    A: ||u A u^+ - A|| = ||(u - I) A - A (u - I)||, and u - I has norm
    |e^{i theta} - 1| = 2 |sin(theta/2)|. A rotation whose bound is at or
    below a prune threshold can be skipped: its result would be pruned."""

    basis: np.ndarray
    p: np.ndarray
    bound_factor: float


def rotation_plane(x: np.ndarray) -> RotationPlane:
    """The ``RotationPlane`` of the generator vector x (x[0] = 0)."""
    theta = float(np.linalg.norm(x))
    if theta < 1e-150:
        # the squares of x's entries underflow
        theta = float(np.hypot.reduce(np.abs(x)))
    basis = np.zeros((x.size, 2), dtype=complex)
    basis[0, 0] = 1.0
    # below the smallest normal double 1/theta overflows, and the rotation
    # moves no entry by more than rounding resolves, so it is the identity
    if theta >= np.finfo(float).tiny:
        basis[:, 1] = x / theta
    cos, sin = np.cos(theta), np.sin(theta)
    p = basis @ np.array([[cos - 1.0, -sin], [sin, cos - 1.0]])
    return RotationPlane(basis, p, 4.0 * abs(np.sin(0.5 * theta)))


def _rotation_border(op: LocalOp, J: Rect, plane: RotationPlane) -> np.ndarray:
    """The border C of u A u^+ - A for the Hermitian A = ``op`` and
    u = exp(S) (x) I, where S acts on the legs of J inside op's support
    through its ``plane``: with J's legs moved last,
    u A u^+ - A = B C + C^+ B^+ for B = I_rest (x) P, in O(n^2) for the
    support dimension n. For a stack of operators, the stack of borders.

    With u - I = (P U^+) (x) I and K = A (U (x) I),
    C = K^+ + (1/2) (U^+ (x) I) K (P (x) I)^+ has shape 2 rest x n, and
    every product contracts J's legs with a two-column matrix. Each
    product keeps the stack axes, so every operator of a stack goes
    through the same BLAS calls as on its own.
    """
    if not op.support.contains(J):
        raise ValueError(f"rectangle {J} not contained in {op.support}")
    basis, p = plane.basis, plane.p
    a = permute_legs(op.matrix, op.support, J, op.M)
    lead = a.shape[:-2]
    dim, dim_j = op.dim, basis.shape[0]
    rest = dim // dim_j
    kh = adjoint((a.reshape(lead + (-1, dim_j)) @ basis).reshape(lead + (dim, 2 * rest)))
    m = kh.reshape(lead + (-1, dim_j)) @ basis
    kh += 0.5 * (m @ p.conj().T).reshape(lead + (2 * rest, dim))
    return kh


def border_delta(support: Rect, M: int, J: Rect, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """B C + C^+ B^+ on ``support`` for B = I_rest (x) P (for each C of a
    stack), with J's legs put back in place."""
    lead, dim = c.shape[:-2], c.shape[-1]
    w = (adjoint(c).reshape(lead + (-1, 2)) @ p.conj().T).reshape(lead + (dim, dim))
    h = adjoint(w)
    h += w
    del w
    return permute_legs(h, support, J, M, back=True)


def rotation_delta(op: LocalOp, J: Rect, plane: RotationPlane) -> np.ndarray:
    """u A u^+ - A for the Hermitian A = ``op`` and u = exp(S) (x) I, where
    S acts on the legs of J inside op's support through its ``plane``, in
    O(n^2) for the support dimension n (see ``_rotation_border``)."""
    return border_delta(op.support, op.M, J, plane.p, _rotation_border(op, J, plane))


def rotation_border_norm(
    op: LocalOp, J: Rect, plane: RotationPlane
) -> tuple[np.ndarray, float | np.ndarray]:
    """The border C of u A u^+ - A (see ``_rotation_border``) and the
    operator norm of that delta, with no n x n matrix formed; for a stack
    of operators, the stack of borders and the array of norms. The delta
    has rank at most 4 n / n_J, so its norm is ``border_norm`` of C and the
    dense n x 2 rest factor B = I_rest (x) P, built once for the whole
    stack; ``border_delta`` gives the delta itself."""
    c = _rotation_border(op, J, plane)
    rest = c.shape[-2] // 2
    b = np.zeros((rest, plane.p.shape[0], rest, 2), dtype=complex)
    b[np.arange(rest), :, np.arange(rest)] = plane.p
    return c, border_norm(b.reshape(op.dim, 2 * rest), c)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_i x_i for every i along the leading stack axis."""
    return (a @ x[..., None])[..., 0]


def _ad(tab: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_q [S_q, T_iq] for every i, for Hermitian coordinate matrices
    T_iq = ``tab[:, i, q]`` and S_q = c_q e0^+ - e0 c_q^+ with
    c_q = ``c[:, q]``, along the leading stack axis.

    e0 is the first coordinate vector, and T Hermitian gives
    [S, T] = W + W^+ for W = c (e0^+ T) - e0 (c^+ T). Both contractions are
    batched matmuls, which take the sliced table without copying it.
    """
    w = c.swapaxes(1, 2)[:, None] @ tab[..., 0, :]
    w[..., 0, :] -= (c.conj()[:, None, :, None, :] @ tab)[..., 0, :].sum(2)
    w += adjoint(w)
    return w


def _ad_first(c: np.ndarray, a0: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """[S, A] = W + W^+ for W = x (A e0)^+ - e0 (A x)^+, from the coordinates
    of x = Z c, A e0 and A x (leading axes stack)."""
    h = c[..., :, None] * a0.conj()[..., None, :]
    h[..., 0, :] -= ax.conj()
    h += adjoint(h)
    return h


def _ad_g(excited: np.ndarray) -> np.ndarray:
    """[S, G] = -(b e0^+ + e0 b^+) for S = x e0^+ - e0 x^+, from no product
    with G, where b (with b[0] = 0) is ``excited`` (leading axes stack).

    G fixes the vacuum, G e0 = e0 e0, and x = R b for R = (G' - e0)^-1 on
    the excited block, so G x = e0 x + b.
    """
    h = np.zeros(excited.shape + excited.shape[-1:], dtype=complex)
    h[..., :, 0] -= excited
    h += adjoint(h)
    return h


class _SeriesBasis:
    """Orthonormal bases Z (Z[:, 0] = e0) of the series spans of a stack of
    steps of dimension n. For n <= 2 j_max + 1 each basis is C^n itself, so
    coordinates are the vectors; otherwise (a stack of one, see
    ``stack_limit``) it grows by two-pass Gram-Schmidt up to 2 j_max
    columns, e0 and one per vector the series offers, and unbuilt columns
    stay zero, so coordinates keep their meaning as it grows."""

    def __init__(self, k: int, n: int, j_max: int):
        self.full = n <= 2 * j_max + 1
        if self.full:
            self.width = self.width_max = n
            return
        self.width, self.width_max = 1, 2 * j_max
        self.q = np.zeros((k, n, self.width_max), dtype=complex)
        self.qh = np.zeros((k, self.width_max, n), dtype=complex)
        self.q[:, 0, 0] = self.qh[:, 0, 0] = 1.0

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates c of the vectors x = Z c, after adding the part of x
        orthogonal to Z as a new column unless it is negligible for every
        step of the stack."""
        if self.full:
            return x
        q, qh = self.q, self.qh
        c = _matvec(qh, x)
        y = x - _matvec(q, c)
        d = _matvec(qh, y)
        c += d
        y -= _matvec(q, d)
        nrm = np.linalg.norm(y, axis=-1)
        new = nrm > BASIS_DEPENDENCE_TOL * np.linalg.norm(x, axis=-1)
        if new.any():
            col = self.width
            q[new, :, col] = y[new] / nrm[new, None]
            qh[new, col] = q[new, :, col].conj()
            c[new, col] = nrm[new]
            self.width += 1
        return c

    def vectors(self, c: np.ndarray) -> np.ndarray:
        """The vectors Z c."""
        return c if self.full else _matvec(self.q, c)

    def operators(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The operators Z t Z^+ for coordinate matrices t, written into
        ``out`` unless the basis is all of C^n (then t itself)."""
        if self.full:
            return t
        w = self.width
        return np.matmul(self.q[:, :, :w] @ t[:, :w, :w], self.qh[:, :w], out=out)


def _stacked(mats: list[np.ndarray]) -> np.ndarray:
    """The matrices along a new leading axis (a view for a single one)."""
    return mats[0][None] if len(mats) == 1 else np.stack(mats)


def stack_limit(dim: int, j_max: int) -> int:
    """How many steps of dimension ``dim`` one stacked series run takes.

    A step with dim <= 2 j_max + 1 takes C^dim as its series basis, and such
    steps share a run while their chain tables, (j_max + 1)^2 dim^2 complex
    numbers each, fit in ``STACK_TABLE_BYTES``; a larger step runs alone.
    """
    if dim > 2 * j_max + 1:
        return 1
    return max(1, STACK_TABLE_BYTES // (16 * (j_max + 1) ** 2 * dim**2))


def series_stack(
    steps: list[tuple[Rect, LocalOp, LocalOp]], t: float, j_max: int = 12
) -> list[StepOperators]:
    """The series of several steps (J, G, V) of one dimension n, in runs
    of at most ``stack_limit(n, j_max)`` steps along a leading stack axis.
    A G that does not fix the vacuum is refused with ``GapError``, as
    ``assemble_g`` refuses it.

    Nothing here warns or judges a step: the gap warning is
    ``lie_schwinger_series``'s, and the flow judges the gap and the step
    defect.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    for J, g, v1 in steps:
        if g.matrix.shape != v1.matrix.shape:
            raise ValueError("g and v1 must live on the same support")
        _require_fixed_vacuum(J, g.matrix)
    dims = {g.dim for _, g, _ in steps}
    if len(dims) != 1:
        raise ValueError(f"a stack holds steps of one dimension, got {sorted(dims)}")
    size = stack_limit(dims.pop(), j_max)
    out: list[StepOperators] = []
    for i in range(0, len(steps), size):
        out += _run_stack(steps[i : i + size], t, j_max)
    return out


# a series that overflows ends in a NaN step defect, which the flow's
# truncation clause reports; numpy need not warn on the way
@np.errstate(over="ignore", invalid="ignore")
def _run_stack(
    steps: list[tuple[Rect, LocalOp, LocalOp]], t: float, j_max: int
) -> list[StepOperators]:
    rects, gs, v1s = zip(*steps)
    G = _stacked([g.matrix for g in gs])
    V = _stacked([v1.matrix for v1 in v1s])
    e0 = G[:, 0, 0].real
    k, dim = G.shape[:2]
    # the three O(n^3) solves: the gaps and the resolvents (G' - e0)^-1 of
    # the excited blocks, each once for the whole stack, and the norm of
    # each V, once per entry (``LocalOp.norm``), taken while few n x n
    # buffers are live
    gaps = check_g_gap(G)
    v1_norms = [v1.norm for v1 in v1s]
    shifted = G[:, 1:, 1:].copy()
    diag = np.arange(dim - 1)
    shifted[:, diag, diag] -= e0[:, None]
    resolvent = np.linalg.inv(shifted)
    del shifted

    basis = _SeriesBasis(k, dim, j_max)
    width_max = basis.width_max
    v0 = basis.coords(V[:, :, 0])  # V e0
    xs = np.zeros((k, j_max, dim), dtype=complex)  # [:, r - 1] holds x_r
    cs = np.zeros((k, j_max, width_max), dtype=complex)  # x_r = Z c_r

    # chain table: [:, p, j] holds the coordinates Z^+ T Z of the order-j
    # chains of length p, the sums over compositions r_1+..+r_p = j of
    # ad S_{r_1}(.. ad S_{r_p}(G)) and over r_1+..+r_p = j-1 of
    # ad S_{r_1}(.. ad S_{r_p}(V)), r_1 outermost; [:, p, j] = 0 for j < p.
    # Both parts obey [p, j] = sum_q [S_{j-q}, [p-1, q]], so v_j is
    # sum_p [p, j] / p!, read before [S_j, G] enters [1, j]
    tab = np.zeros((k, j_max + 1, j_max + 1, width_max, width_max), dtype=complex)
    inv_fact = np.array([1.0 / factorial(p) for p in range(j_max + 1)])
    vs = np.zeros((k, j_max - 1, width_max, width_max), dtype=complex)  # v_j, j >= 2
    for j in range(1, j_max + 1):
        if j == 1:
            excited = v0.copy()
        else:
            # [p, j] for p = 2..j, on the first width coordinates, outside
            # which every entry so far vanishes
            w = basis.width
            tab[:, 2 : j + 1, j, :w, :w] = _ad(
                tab[:, 1:j, 1:j, :w, :w], cs[:, : j - 1, :w][:, ::-1]
            )
            vs[:, j - 2] = (inv_fact[1 : j + 1] @ tab[:, 1 : j + 1, j].reshape(k, j, -1)).reshape(
                k, width_max, width_max
            )
            excited = vs[:, j - 2, :, 0].copy()  # v_j e0
        excited[:, 0] = 0.0
        x = xs[:, j - 1]
        x[:, 1:] = _matvec(resolvent, basis.vectors(excited)[:, 1:])
        if j < j_max:
            # with R b_j above, V x_j is this order's O(n^2) work
            cs[:, j - 1] = cx = basis.coords(x)
            vx = basis.coords(_matvec(V, x))
            # [S_j, G] has order j, [S_j, V] order j + 1
            tab[:, 1, j] += _ad_g(excited)
            tab[:, 1, j + 1] = _ad_first(cx, v0, vx)

    del resolvent, tab
    powers = float(t) ** np.arange(1, j_max + 1)
    X = powers @ xs  # sum_j t^j x_j
    rest = np.tensordot(vs, powers[:-1], axes=(1, 0))  # sum_{j>=2} t^{j-1} v_j
    local = t * V  # L = G + t V, in one buffer
    local += G
    planes = [rotation_plane(x) for x in X]
    conj = _stacked(
        [
            rotation_delta(LocalOp(J, mat, v1.M), J, plane)
            for J, mat, v1, plane in zip(rects, local, v1s, planes)
        ]
    )
    conj += local
    od_residuals = np.maximum(
        np.linalg.norm(conj[:, 1:, 0], axis=-1), np.linalg.norm(conj[:, 0, 1:], axis=-1)
    )
    # nothing reads L any more: its buffer takes the basis product of
    # v_diag, then the step defect ||u L u^+ - (G + t v_diag)||_F
    v_diag = V + basis.operators(rest, out=local)
    v_diag[:, 0, 1:] = 0.0
    v_diag[:, 1:, 0] = 0.0
    np.multiply(v_diag, t, out=local)
    local += G
    np.subtract(conj, local, out=local)
    defects = [np.linalg.norm(diff) for diff in local]
    return [
        StepOperators(
            rect=J,
            g=g,
            e0=float(e0[i]),
            generators=list(xs[i]),
            generator=X[i],
            plane=planes[i],
            v_diag_total=LocalOp(J, v_diag[i], v1.M),
            g_gap=float(gaps[i]),
            v1_norm=v1_norms[i],
            s_norm=float(np.linalg.norm(X[i])),
            od_residual=float(od_residuals[i]),
            step_defect=float(defects[i]),
            tail_bound=_series_tail(t, v1_norms[i], j_max),
        )
        for i, (J, g, v1) in enumerate(zip(rects, gs, v1s))
    ]


def lie_schwinger_series(ops: StepOperators) -> StepOperators:
    """Warn about the gap of one step's ``series_stack`` output ``ops``,
    and return it."""
    if ops.g_gap < GAP_WARN:
        warnings.warn(
            f"gap degradation on {ops.rect}: excited block starts {ops.g_gap:.3g} above the "
            "vacuum energy"
        )
    return ops
