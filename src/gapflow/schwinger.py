"""One local block-diagonalization step.

Builds the already-diagonal local operator G and its vacuum energy E, the
anti-Hermitian generator series S = sum_j t^j S_j, and the transformed
block-diagonal potential sum_j t^{j-1} (V)_j^diag, with a truncation
certificate from the recursive majorant sequence B_j.

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
x_r^+ T, T e0 and e0^+ T, and each of its terms has e0 or x_r on one side;
for T = G or V the other side is T e0 or T x_r. So every table entry is a
Hermitian operator that vanishes off
Z = span(e0, G e0, V e0, x_r, G x_r, V x_r : r < j_max), of dimension
D <= min(n, 3 j_max) whatever the support dimension n, and is stored as its
D x D coordinate matrix Z^+ T Z against an orthonormal basis of Z. In those
coordinates [S, T] = W + W^+ with W = c (e0^+ T) - e0 (c^+ T) for x = Z c,
so one batched commutator gives every chain length of an order.
Per order the only O(n^2) work is one matvec with G, one with V and one
with the resolvent (G' - e0)^-1 of the excited block, inverted once per
step; the rest costs O(n j_max) for the basis and O(j_max^2 D^2) for the
table. The term norms come from one stacked D x D eigenvalue solve.
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
    diag_part,
    embedded_sum,
    offdiag_norm,
    permute_legs,
)

GAP_FLOOR = 0.5
GAP_WARN = 0.25
INNER_OD_TOL = 1e-9
GP_MINUS_TOL = 1e-10
EMPIRICAL_TAIL_SAFETY = 2.0
# a vector (x_r, or G or V applied to e0 or x_r) whose part outside the
# series basis built so far is at most this fraction of its norm lies in
# that span to rounding and adds no column
BASIS_DEPENDENCE_TOL = 1e-14


class ConvergenceError(RuntimeError):
    """Raised when the step series shows no usable convergence."""


class GapError(RuntimeError):
    """Raised when an already-diagonal local operator loses its gap."""


MAJORANT_A = 0.023320199830777617
"""The majorant constant a: the root of (e^{8a} - 8a - 1)/a + e^{8a} - 1 = 1,
to the last bit of a double (0x1.7e1401e6fffe5p-6)."""


@dataclass
class MajorantSeries:
    """Recursive majorants B_1 = ||v1||, B_j = (1/a) sum_{l<j} B_{j-l} B_l
    of the step series, with a = ``MAJORANT_A``; a/(4 B_1) bounds the
    convergence radius in t from below."""

    b: list[float]

    @property
    def a(self) -> float:
        return MAJORANT_A

    @property
    def v1_norm(self) -> float:
        return self.b[0]

    @property
    def radius_lower_bound(self) -> float:
        return MAJORANT_A / (4 * self.b[0])

    def extend(self, n: int) -> None:
        """Append majorants until ``b`` holds B_1 .. B_n."""
        b = self.b
        while len(b) < n:
            j = len(b) + 1
            b.append(sum(b[j - l - 1] * b[l - 1] for l in range(1, j)) / MAJORANT_A)

    def tail(self, t: float, j_max: int) -> float:
        """Upper bound for sum_{j>j_max} t^{j-1} B_j (requires t below the radius).

        Terms are advanced through the coefficient ratio
        B_{j+1}/B_j = (2(2j-1)/(j+1)) B_1/a, which stays below 4 B_1/a, so
        neither the coefficients nor the powers are formed explicitly.
        """
        t = abs(t)
        rho = 4.0 * self.v1_norm * t / self.a
        if rho >= 1.0:
            raise ConvergenceError(
                f"coupling t={t} is outside the certified region "
                f"t < {self.radius_lower_bound:.6g}"
            )
        j = j_max + 1
        self.extend(j)
        term = t ** (j - 1) * self.b[j - 1]
        total = 0.0
        while True:
            total += term
            rest = term * rho / (1.0 - rho)
            if rest <= 1e-300 + 1e-16 * total:
                return total + rest
            term *= 2.0 * (2 * j - 1) / (j + 1) * self.v1_norm / self.a * t
            j += 1


def majorants(v1_norm: float, j_max: int) -> MajorantSeries:
    """The majorants B_1 .. B_{j_max+1} for B_1 = ``v1_norm``."""
    if v1_norm <= 0:
        raise ValueError("v1_norm must be positive")
    maj = MajorantSeries([v1_norm])
    maj.extend(j_max + 1)
    return maj


@dataclass
class StepOperators:
    """Everything produced by one local block-diagonalization step.

    ``generators`` holds the vectors x_j of S_j = x_j e0^+ - e0 x_j^+, and
    ``generator`` the vector X = sum_j t^j x_j of the step generator
    S = X e0^+ - e0 X^+; ``generator_exponential(generator)`` is exp(S).
    ``basis`` is an orthonormal basis Z of
    span(e0, G e0, V e0, x_r, G x_r, V x_r : r < j_max) for G = ``g`` and
    V = ``v1``, at most 3 j_max columns wide, with Z[:, 0] = e0. ``v_coords`` holds the coefficients
    v_j for j >= 2 as Hermitian coordinate matrices v = Z^+ v_j Z against its
    first len(v) columns, so v_j = Z v Z^+; v_1 is ``v1`` itself.
    ``od_residual`` is the off-block norm of the conjugated local operator
    u L u^+ (u = exp(S), L = G + t V), and ``step_defect`` its Frobenius
    distance ||u L u^+ - (G + t v_diag)||_F to what the step stores: the
    series truncation plus rounding, taken in O(n^2).
    """

    rect: Rect
    g: LocalOp
    v1: LocalOp
    e0: float
    generators: list[np.ndarray]
    generator: np.ndarray
    basis: np.ndarray
    v_coords: list[np.ndarray]
    v_diag_total: LocalOp
    tail_bound: float
    tail_certified: bool
    gap: float
    v1_norm: float
    s_norm: float
    term_norms: list[float]
    majorant: MajorantSeries | None
    od_residual: float
    step_defect: float


def assemble_g(
    J: Rect, interactions: dict[Rect, LocalOp], t: float
) -> tuple[LocalOp, float]:
    """Already-diagonal local operator on J: on-site terms plus every strictly
    smaller stored potential, with its vacuum energy."""
    inner = [op for key, op in interactions.items() if J.contains(key) and key != J]
    if not inner:
        raise ValueError(f"no on-site terms found inside {J}; interaction map is incomplete")
    for op in inner:
        if op.support.circumference == 0:
            continue
        od = offdiag_norm(op.matrix)
        if od > INNER_OD_TOL:
            raise GapError(
                f"inner potential on {op.support} not yet diagonalized "
                f"(off-block norm {od:.3g})"
            )
    g = embedded_sum(coupled(inner, t), J, inner[0].M)
    total = g.matrix
    e0 = float(total[0, 0].real)
    col = total[:, 0].copy()
    col[0] -= e0
    if np.linalg.norm(col) > GP_MINUS_TOL or abs(total[0, 0].imag) > GP_MINUS_TOL:
        raise GapError(
            f"local operator on {J} does not fix the vacuum vector "
            f"(residual {np.linalg.norm(col):.3g})"
        )
    return g, e0


def check_g_gap(g: LocalOp, e0: float, J: Rect) -> float:
    """Spectral gap of the excited block above the vacuum energy.

    This is a report, not an assertion: negative values are returned.
    """
    sub = g.matrix[1:, 1:]
    w = np.linalg.eigvalsh(sub)
    return float(w[0] - e0)


def _series_tail(
    term_norms: list[float], t: float, maj: MajorantSeries, j_max: int
) -> tuple[float, bool]:
    """Truncation tail: the exact majorant sum when t is inside the certified
    region, otherwise a geometric extrapolation of the computed terms."""
    t = abs(t)
    rho = 4.0 * maj.v1_norm * t / maj.a
    if rho < 1.0:
        return maj.tail(t, j_max), True
    if j_max < 2:
        raise ConvergenceError(
            "coupling outside certified convergence region and j_max < 2 "
            "leaves nothing to extrapolate a tail from"
        )
    tau = [t ** (j - 1) * nrm for j, nrm in enumerate(term_norms, start=1)]
    nonzero = [(j, v) for j, v in enumerate(tau, start=1) if v > 1e-300]
    if len(nonzero) <= 1:
        # every computed higher order vanished identically
        return 0.0, True
    window = nonzero[-5:]
    ratios = []
    for (ja, va), (jb, vb) in zip(window, window[1:]):
        ratios.append((vb / va) ** (1.0 / (jb - ja)))
    r = max(ratios)
    if r >= 1.0:
        raise ConvergenceError(
            "coupling outside certified convergence region: step series terms "
            f"are not decaying (observed ratio {r:.3g} at t={t})"
        )
    j_last, tau_last = window[-1]
    gap_to_tail = j_max + 1 - j_last
    tail = tau_last * r**gap_to_tail / (1.0 - r) * EMPIRICAL_TAIL_SAFETY
    return tail, False


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


def _rotation_border(op: LocalOp, J: Rect, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The border (P, C) of u A u^+ - A for the Hermitian A = ``op`` and
    u = exp(S) (x) I, where S = x e0^+ - e0 x^+ acts on the legs of J inside
    op's support: with J's legs moved last, u A u^+ - A = B C + C^+ B^+ for
    B = I_rest (x) P, in O(n^2) for the support dimension n.

    u - I = (P U^+) (x) I with U = [e0, x/theta] and P = U z for the plane
    rotation z = [[cos theta - 1, -sin theta], [sin theta, cos theta - 1]].
    With K = A (U (x) I), C = K^+ + (1/2) (U^+ (x) I) K (P (x) I)^+ has shape
    2 rest x n, and every product contracts J's legs with a two-column matrix.
    """
    if not op.support.contains(J):
        raise ValueError(f"rectangle {J} not contained in {op.support}")
    theta = float(np.linalg.norm(x))
    basis = np.zeros((x.size, 2), dtype=complex)
    basis[0, 0] = 1.0
    if theta > 0:
        basis[:, 1] = x / theta
    cos, sin = np.cos(theta), np.sin(theta)
    p = basis @ np.array([[cos - 1.0, -sin], [sin, cos - 1.0]])

    a = permute_legs(op.matrix, op.support, J, op.M)
    dim, dim_j = op.dim, x.size
    rest = dim // dim_j
    kh = adjoint((a.reshape(-1, dim_j) @ basis).reshape(dim, 2 * rest))
    m = (kh.reshape(-1, dim_j) @ basis).reshape(-1, 2)
    kh += 0.5 * (m @ p.conj().T).reshape(2 * rest, dim)
    return p, kh


def _border_delta(op: LocalOp, J: Rect, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """B C + C^+ B^+ for B = I_rest (x) P, with J's legs put back in place."""
    w = (adjoint(c).reshape(-1, 2) @ p.conj().T).reshape(op.dim, op.dim)
    h = adjoint(w)
    h += w
    return permute_legs(h, op.support, J, op.M, back=True)


def rotation_delta(op: LocalOp, J: Rect, x: np.ndarray) -> np.ndarray:
    """u A u^+ - A for the Hermitian A = ``op`` and u = exp(S) (x) I, where
    S = x e0^+ - e0 x^+ acts on the legs of J inside op's support, in O(n^2)
    for the support dimension n (see ``_rotation_border``)."""
    return _border_delta(op, J, *_rotation_border(op, J, x))


def rotation_delta_bound(x: np.ndarray, norm: float) -> float:
    """Upper bound on ||u A u^+ - A|| for u = exp(S) (x) I, S = x e0^+ - e0 x^+,
    and any A with ||A|| <= ``norm``, before anything is rotated.

    ||u A u^+ - A|| = ||u A - A u|| = ||(u - I) A - A (u - I)||, and u - I
    has norm |e^{i theta} - 1| = 2 |sin(theta / 2)| for theta = ||x||, so
    the bound is 4 |sin(theta / 2)| ``norm``. A rotation whose bound is at
    or below a prune threshold can be skipped: its result would be pruned.
    """
    theta = float(np.linalg.norm(x))
    if theta < 1e-150:  # the squares of x's entries underflow
        theta = float(np.hypot.reduce(np.abs(x)))
    return 4.0 * abs(np.sin(0.5 * theta)) * norm


def rotation_delta_norm(op: LocalOp, J: Rect, x: np.ndarray) -> tuple[np.ndarray, float]:
    """``rotation_delta(op, J, x)`` and its operator norm, both from one
    border. The delta has rank at most 4 n / n_J, so its norm comes from
    ``border_norm`` of the dense n x 2 rest factor B = I_rest (x) P."""
    p, c = _rotation_border(op, J, x)
    rest = c.shape[0] // 2
    b = np.zeros((rest, x.size, rest, 2), dtype=complex)
    b[np.arange(rest), :, np.arange(rest)] = p
    return _border_delta(op, J, p, c), border_norm(b.reshape(op.dim, 2 * rest), c)


def _ad(tab: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_q [S_q, T_iq] for every i, for Hermitian coordinate matrices
    T_iq = ``tab[i, q]`` and S_q = c_q e0^+ - e0 c_q^+ with c_q = ``c[q]``.

    e0 is the first coordinate vector, and T Hermitian gives
    [S, T] = W + W^+ for W = c (e0^+ T) - e0 (c^+ T). Both contractions are
    batched matmuls, which take the sliced table without copying it.
    """
    w = c.T @ tab[:, :, 0]
    w[:, 0] -= (c.conj()[:, None, :] @ tab)[:, :, 0, :].sum(1)
    return w + w.conj().swapaxes(1, 2)


def _extend_basis(
    q: np.ndarray, qh: np.ndarray, width: int, x: np.ndarray
) -> tuple[np.ndarray, int]:
    """Coordinates c of x in the basis Q (x = Q c), after adding the part of
    x orthogonal to the built columns as a new column (two Gram-Schmidt
    passes) unless it is negligible or the basis already spans the space."""
    c = qh @ x
    y = x - q @ c
    d = qh @ y
    c += d
    y -= q @ d
    nrm = float(np.linalg.norm(y))
    if width < q.shape[1] and nrm > BASIS_DEPENDENCE_TOL * np.linalg.norm(x):
        q[:, width] = y / nrm
        qh[width] = q[:, width].conj()
        c[width] = nrm
        width += 1
    return c, width


def lie_schwinger_series(
    J: Rect,
    g: LocalOp,
    e0: float,
    v1: LocalOp,
    t: float,
    j_max: int = 12,
) -> StepOperators:
    """Generator series and transformed block-diagonal potential for one step."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if g.matrix.shape != v1.matrix.shape:
        raise ValueError("g and v1 must live on the same support")
    G = g.matrix
    V = v1.matrix
    dim = G.shape[0]
    gap = check_g_gap(g, e0, J)
    if gap < GAP_WARN:
        warnings.warn(
            f"gap degradation on {J}: excited block starts {gap:.3g} above the "
            "vacuum energy"
        )
    # the resolvent (G' - e0)^-1 on the excited block, formed once per step
    resolvent = np.linalg.inv(G[1:, 1:] - e0 * np.eye(dim - 1))

    v1_norm = v1.norm
    maj = majorants(v1_norm, j_max) if v1_norm > 0 else None

    # orthonormal basis Z of span(e0, G e0, V e0, x_r, G x_r, V x_r : r < j_max)
    # with Z[:, 0] = e0; unbuilt columns stay zero, and a vector's coordinates
    # (y = Z a) keep their meaning as the basis grows
    width_max = min(dim, 3 * j_max)
    Z = np.zeros((dim, width_max), dtype=complex)
    Zh = np.zeros((width_max, dim), dtype=complex)
    Z[0, 0] = Zh[0, 0] = 1.0
    g0, width = _extend_basis(Z, Zh, 1, G[:, 0])
    v0, width = _extend_basis(Z, Zh, width, V[:, 0])
    xs = np.zeros((j_max, dim), dtype=complex)  # row r-1 holds x_r
    cs = np.zeros((j_max, width_max), dtype=complex)  # x_r = Z c_r

    def ad_first(c: np.ndarray, a0: np.ndarray, ax: np.ndarray) -> np.ndarray:
        # [S, A] = W + W^+ for W = x (A e0)^+ - e0 (A x)^+, x = Z c
        h = np.outer(c, a0.conj())
        h[0] -= ax.conj()
        return h + h.conj().T

    # chain table: [p, j] holds the coordinates Z^+ T Z of the order-j chains
    # of length p, the sums over compositions r_1+..+r_p = j of
    # ad S_{r_1}(.. ad S_{r_p}(G)) and over r_1+..+r_p = j-1 of
    # ad S_{r_1}(.. ad S_{r_p}(V)), r_1 outermost; [p, j] = 0 for j < p.
    # Both parts obey [p, j] = sum_q [S_{j-q}, [p-1, q]], so v_j is
    # sum_p [p, j] / p!, read before [S_j, G] enters [1, j]
    tab = np.zeros((j_max + 1, j_max + 1, width_max, width_max), dtype=complex)
    inv_fact = np.array([1.0 / factorial(p) for p in range(j_max + 1)])
    vs = np.zeros((j_max - 1, width_max, width_max), dtype=complex)  # v_j, j >= 2
    v_coords: list[np.ndarray] = []
    for j in range(1, j_max + 1):
        if j == 1:
            col = V[:, 0]
        else:
            # [p, j] for p = 2..j, on the first width coordinates, outside
            # which every entry so far vanishes
            tab[2 : j + 1, j, :width, :width] = _ad(
                tab[1:j, 1:j, :width, :width], cs[: j - 1, :width][::-1]
            )
            vj = vs[j - 2]
            np.matmul(inv_fact[1 : j + 1], tab[1 : j + 1, j].reshape(j, -1), out=vj.reshape(-1))
            v_coords.append(vj[:width, :width])
            col = Z @ vj[:, 0]  # v_j e0
        x = xs[j - 1]
        x[1:] = resolvent @ col[1:]
        if j < j_max:
            cs[j - 1], width = _extend_basis(Z, Zh, width, x)
            # the two dense products of this order
            gx, width = _extend_basis(Z, Zh, width, G @ x)
            vx, width = _extend_basis(Z, Zh, width, V @ x)
            # [S_j, G] has order j, [S_j, V] order j + 1
            tab[1, j] += ad_first(cs[j - 1], g0, gx)
            tab[1, j + 1] = ad_first(cs[j - 1], v0, vx)

    # one stacked solve: zero padding to the final width adds only zero
    # eigenvalues, so each largest |eigenvalue| is the term's norm
    term_norms = [v1_norm, *np.abs(np.linalg.eigvalsh(vs[:, :width, :width])).max(1).tolist()]
    if maj is not None:
        tail_bound, certified = _series_tail(term_norms, t, maj, j_max)
    else:
        tail_bound, certified = 0.0, True

    powers = float(t) ** np.arange(1, j_max + 1)
    X = powers @ xs  # sum_j t^j x_j
    rest = np.tensordot(powers[:-1], vs, 1)  # sum_{j>=2} t^{j-1} v_j
    Zw = Z[:, :width]
    v_diag = diag_part(V + Zw @ rest[:width, :width] @ Zh[:width])
    local = G + t * V
    conj = local + rotation_delta(LocalOp(J, local, v1.M), J, X)
    od_residual = offdiag_norm(conj)
    # the step defect ||u L u^+ - (G + t v_diag)||_F, formed in the buffer
    # of L, which nothing reads any more
    np.multiply(v_diag, t, out=local)
    local += G
    np.subtract(conj, local, out=local)
    defect = float(np.linalg.norm(local))
    return StepOperators(
        rect=J,
        g=g,
        v1=v1,
        e0=e0,
        generators=list(xs),
        generator=X,
        basis=Zw.copy(),
        v_coords=v_coords,
        v_diag_total=LocalOp(J, v_diag, v1.M),
        tail_bound=tail_bound,
        tail_certified=certified,
        gap=gap,
        v1_norm=v1_norm,
        s_norm=float(np.linalg.norm(X)),
        term_norms=term_norms,
        majorant=maj,
        od_residual=od_residual,
        step_defect=defect,
    )
