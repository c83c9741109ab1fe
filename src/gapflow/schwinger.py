"""One local block-diagonalization step.

Builds the already-diagonal local operator G and its vacuum energy E, the
anti-Hermitian generator series S = sum_j t^j S_j, and the transformed
block-diagonal potential sum_j t^{j-1} (V)_j^diag, with a truncation
certificate from the recursive majorant sequence B_j.

The order-j coefficients are the nested-commutator composition sums

  (V)_j = sum_{p>=2} (1/p!) sum_{r_1+..+r_p=j}   ad S_{r_1}(... ad S_{r_p}(G))
        + sum_{p>=1} (1/p!) sum_{r_1+..+r_p=j-1} ad S_{r_1}(... ad S_{r_p}(V)),

evaluated through a two-table dynamic program over (chain length, order).
The outermost commutator index is r_1; all parts are at most j-1, so each
order only consumes generators already built.

The vacuum projection of the step rectangle is the rank-one E_00, so every
generator is rank two: S_j = x_j e0^+ - e0 x_j^+ with x_j orthogonal to e0,
and only the vectors x_j are kept. A commutator [S_r, T] needs only T x_r,
x_r^+ T, T e0 and e0^+ T, and each of its terms has e0 or x_r on one side.
So every table entry T vanishes between vectors orthogonal to
K = span(e0, x_1, .., x_{j_max-1}) and is stored as a border
T = Q R + L Q^+ against an orthonormal basis Q of K, with row block R and
column block L of width at most j_max. Columns of Q not yet built are zero,
and so are the matching rows of R and columns of L, so an entry keeps its
meaning as the basis grows. Per order the only O(n^2) work is one matvec
with G and one with V; every commutator costs O(n j_max).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.optimize import brentq

from .geometry import Rect
from .tensor import LocalOp, add_embedded, diag_part, offdiag_norm, op_norm, permute_legs

GAP_FLOOR = 0.5
GAP_WARN = 0.25
INNER_OD_TOL = 1e-9
GP_MINUS_TOL = 1e-10
EMPIRICAL_TAIL_SAFETY = 2.0
# a generator vector whose part outside the basis built so far is at most
# this fraction of its norm lies in that span to rounding and adds no column
BASIS_DEPENDENCE_TOL = 1e-14


class ConvergenceError(RuntimeError):
    """Raised when the step series shows no usable convergence."""


class GapError(RuntimeError):
    """Raised when an already-diagonal local operator loses its gap."""


@lru_cache(maxsize=1)
def majorant_constant() -> float:
    """Root of (e^{8a} - 8a - 1)/a + e^{8a} - 1 = 1, bracketed to 1e-15."""

    def f(a: float) -> float:
        return (np.exp(8 * a) - 8 * a - 1) / a + np.exp(8 * a) - 2.0

    return float(brentq(f, 1e-8, 1.0, xtol=1e-15, rtol=8.9e-16))


@dataclass
class MajorantSeries:
    """Recursive majorants B_j for the step series and their convergence data."""

    a: float
    b: list[float]
    v1_norm: float
    radius_lower_bound: float

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
        while len(self.b) < j:
            n = len(self.b) + 1
            self.b.append(
                sum(self.b[n - l - 1] * self.b[l - 1] for l in range(1, n)) / self.a
            )
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
    """B_1 = ||v1||, B_j = (1/a) sum_{l<j} B_{j-l} B_l, plus the radius a/(4 B_1)."""
    if v1_norm <= 0:
        raise ValueError("v1_norm must be positive")
    a = majorant_constant()
    b = [v1_norm]
    for _ in range(2, j_max + 2):
        j = len(b) + 1
        b.append(sum(b[j - l - 1] * b[l - 1] for l in range(1, j)) / a)
    return MajorantSeries(a=a, b=b, v1_norm=v1_norm, radius_lower_bound=a / (4 * v1_norm))


Border = tuple[np.ndarray, np.ndarray]


@dataclass
class StepOperators:
    """Everything produced by one local block-diagonalization step.

    ``generators`` holds the vectors x_j of S_j = x_j e0^+ - e0 x_j^+, and
    ``generator`` the vector X = sum_j t^j x_j of the step generator
    S = X e0^+ - e0 X^+; ``generator_exponential(generator)`` is exp(S).
    ``v_borders`` holds the coefficients v_j for j >= 2 as borders (R, L)
    with v_j = Q R + L Q^+ for Q = ``basis``; v_1 is ``v1`` itself.
    """

    rect: Rect
    g: LocalOp
    v1: LocalOp
    e0: float
    generators: list[np.ndarray]
    generator: np.ndarray
    basis: np.ndarray
    v_borders: list[Border]
    v_diag_total: LocalOp
    tail_bound: float
    tail_certified: bool
    gap: float
    v1_norm: float
    s_norm: float
    term_norms: list[float]
    majorant: MajorantSeries | None
    od_residual: float
    spectrum_drift: float

    def dense_terms(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The generators S_j and the coefficients v_j as dense matrices."""
        s_terms = []
        for x in self.generators:
            s = np.zeros((x.size, x.size), dtype=complex)
            s[:, 0] = x
            s[0, :] -= x.conj()
            s_terms.append(s)
        v_terms = [self.v1.matrix] + [
            _border_dense(b, self.basis) for b in self.v_borders
        ]
        return s_terms, v_terms


def assemble_g(
    J: Rect, interactions: dict[Rect, LocalOp], t: float
) -> tuple[LocalOp, float]:
    """Already-diagonal local operator on J: on-site terms plus every strictly
    smaller stored potential, with its vacuum energy."""
    inner = [(key, op) for key, op in interactions.items() if J.contains(key) and key != J]
    if not inner:
        raise ValueError(f"no on-site terms found inside {J}; interaction map is incomplete")
    M = inner[0][1].M
    dim = M**J.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for key, op in inner:
        if key.circumference >= 1:
            od = offdiag_norm(op.matrix)
            if od > INNER_OD_TOL:
                raise GapError(
                    f"inner potential on {key} not yet diagonalized "
                    f"(off-block norm {od:.3g})"
                )
            add_embedded(total, op, J, t)
        else:
            add_embedded(total, op, J)
    e0 = float(total[0, 0].real)
    col = total[:, 0].copy()
    col[0] -= e0
    if np.linalg.norm(col) > GP_MINUS_TOL or abs(total[0, 0].imag) > GP_MINUS_TOL:
        raise GapError(
            f"local operator on {J} does not fix the vacuum vector "
            f"(residual {np.linalg.norm(col):.3g})"
        )
    return LocalOp(J, total, M), e0


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


def rotation_delta(op: LocalOp, J: Rect, x: np.ndarray) -> np.ndarray:
    """u A u^+ - A for the Hermitian A = ``op`` and u = exp(S) (x) I, where
    S = x e0^+ - e0 x^+ acts on the legs of J inside op's support, in O(n^2)
    for the support dimension n.

    u - I = (P U^+) (x) I with U = [e0, x/theta] and P = U z for the plane
    rotation z = [[cos theta - 1, -sin theta], [sin theta, cos theta - 1]].
    With K = A (U (x) I) and C = K^+ + (1/2) (U^+ (x) I) K (P (x) I)^+, the
    delta is W + W^+ for W = C^+ (P (x) I)^+. The legs of J are moved last,
    so every product contracts them with one two-column matrix.
    """
    if not op.support.contains(J):
        raise ValueError(f"rectangle {J} not contained in {op.support}")
    theta = float(np.linalg.norm(x))
    basis = np.zeros((x.size, 2), dtype=complex)
    basis[0, 0] = 1.0
    if theta > 0:
        basis[:, 1] = x / theta
    cos, sin = np.cos(theta), np.sin(theta)
    ph = (basis @ np.array([[cos - 1.0, -sin], [sin, cos - 1.0]])).conj().T

    a = permute_legs(op.matrix, op.support, J, op.M)
    dim, dim_j = op.dim, x.size
    rest = dim // dim_j
    kh = (a.reshape(-1, dim_j) @ basis).reshape(dim, 2 * rest).conj().T
    m = (kh.reshape(-1, dim_j) @ basis).reshape(-1, 2)
    c = kh + 0.5 * (m @ ph).reshape(2 * rest, dim)
    w = (c.conj().T.reshape(-1, 2) @ ph).reshape(dim, dim)
    return permute_legs(w + w.conj().T, op.support, J, op.M, back=True)


def _ad_dense(a: np.ndarray, ax: np.ndarray, c: np.ndarray) -> Border:
    """[S, A] for Hermitian A and S = x e0^+ - e0 x^+ with x = Q c, from A x.

    [S, A] = x (e0^+ A) - e0 (x^+ A) - (A x) e0^+ + (A e0) x^+, where x^+ A is
    the conjugate of A x, so the column terms go to R and the row terms to L.
    """
    r = c[:, None] * a[0]
    r[0] -= ax.conj()
    l = a[:, 0][:, None] * c.conj()
    l[:, 0] -= ax
    return r, l


def _ad_sum(
    r_b: np.ndarray,
    l_b: np.ndarray,
    x_b: np.ndarray,
    c_b: np.ndarray,
    q: np.ndarray,
    qh: np.ndarray,
) -> Border:
    """sum_i [S_i, T_i] for borders T_i = Q R_i + L_i Q^+ stacked along the
    first axis, and S_i = x_i e0^+ - e0 x_i^+ with x_i = Q c_i.

    Each term is x_i (e0^+ T_i) - e0 (x_i^+ T_i) - (T_i x_i) e0^+ + (T_i e0) x_i^+.
    Row 0 of Q is the first unit vector (its first column is e0, the others
    are orthogonal to e0), so e0^+ T_i = R_i[0] + L_i[0] Q^+ and
    T_i e0 = Q R_i[:, 0] + L_i[:, 0]; x_i^+ T_i and T_i x_i enter only summed.
    """
    cb = c_b.conj()
    r = c_b.T @ r_b[:, 0] + (c_b.T @ l_b[:, 0]) @ qh
    r[0] -= np.einsum("kw,kwn->n", cb, r_b) + np.einsum("kn,knw->w", x_b.conj(), l_b) @ qh
    l = q @ (r_b[:, :, 0].T @ cb) + l_b[:, :, 0].T @ cb
    l[:, 0] -= q @ np.einsum("kwn,kn->w", r_b, x_b) + np.einsum("knw,kw->n", l_b, c_b)
    return r, l


def _border_dense(b: Border, q: np.ndarray) -> np.ndarray:
    r, l = b
    qw = q[:, : r.shape[0]]
    return qw @ r + l @ qw.conj().T


def _border_norm(b: Border, q: np.ndarray) -> float:
    """Operator norm of Q R + L Q^+ = [Q, L] [R^+, Q]^+: the thin QR of both
    factors, then the SVD of the product of their small triangular parts."""
    r, l = b
    qw = q[:, : r.shape[0]]
    ra = np.linalg.qr(np.hstack([qw, l]), mode="r")
    rb = np.linalg.qr(np.hstack([r.conj().T, qw]), mode="r")
    return float(np.linalg.norm(ra @ rb.conj().T, 2))


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
    w, U = np.linalg.eigh(G[1:, 1:])
    gap = float(w[0] - e0)
    if gap < GAP_WARN:
        warnings.warn(
            f"gap degradation on {J}: excited block starts {gap:.3g} above the "
            "vacuum energy"
        )
    Uh = U.conj().T
    denom = w - e0

    v1_norm = op_norm(v1)
    maj = majorants(v1_norm, j_max) if v1_norm > 0 else None

    # basis of span(e0, x_1, .., x_{j_max-1}); unbuilt columns stay zero
    width_max = min(dim, j_max)
    Q = np.zeros((dim, width_max), dtype=complex)
    Qh = np.zeros((width_max, dim), dtype=complex)
    Q[0, 0] = Qh[0, 0] = 1.0
    width = 1
    xs = np.zeros((j_max, dim), dtype=complex)  # row r-1 holds x_r
    cs = np.zeros((j_max, width_max), dtype=complex)  # x_r = Q c_r

    # chain tables: [p, m] holds the border (R, L) of the sum over
    # compositions r_1+..+r_p = m of ad S_{r_1}(.. ad S_{r_p}(A)), r_1
    # outermost, for A = G (g_*) and A = V (v_*)
    size = (j_max + 1, j_max + 1)
    g_r = np.zeros(size + (width_max, dim), dtype=complex)
    g_l = np.zeros(size + (dim, width_max), dtype=complex)
    v_r = np.zeros_like(g_r)
    v_l = np.zeros_like(g_l)

    def chain(tab_r: np.ndarray, tab_l: np.ndarray, p: int, m: int) -> None:
        # outermost parts r = k..1 meet the inner chains of order p-1..m-1
        k = m - p + 1
        inner = slice(p - 1, m)
        tab_r[p, m], tab_l[p, m] = _ad_sum(
            tab_r[p - 1, inner], tab_l[p - 1, inner], xs[k - 1 :: -1], cs[k - 1 :: -1], Q, Qh
        )

    inv_fact = np.array([1.0 / factorial(p) for p in range(j_max + 1)])
    v_borders: list[Border] = []
    term_norms = [v1_norm]
    rest_r = np.zeros((width_max, dim), dtype=complex)  # sum_{j>=2} t^{j-1} v_j
    rest_l = np.zeros((dim, width_max), dtype=complex)
    X = np.zeros(dim, dtype=complex)  # sum_j t^j x_j
    for j in range(1, j_max + 1):
        if j == 1:
            col = V[:, 0]
        else:
            for p in range(2, j):
                chain(v_r, v_l, p, j - 1)
            for p in range(2, j + 1):
                chain(g_r, g_l, p, j)
            vr = np.tensordot(inv_fact[2 : j + 1], g_r[2 : j + 1, j], 1)
            vr += np.tensordot(inv_fact[1:j], v_r[1:j, j - 1], 1)
            vl = np.tensordot(inv_fact[2 : j + 1], g_l[2 : j + 1, j], 1)
            vl += np.tensordot(inv_fact[1:j], v_l[1:j, j - 1], 1)
            vj = (vr[:width], vl[:, :width])
            v_borders.append(vj)
            term_norms.append(_border_norm(vj, Q))
            rest_r += t ** (j - 1) * vr
            rest_l += t ** (j - 1) * vl
            col = Q[:, :width] @ vj[0][:, 0] + vj[1][:, 0]  # v_j e0
        x = xs[j - 1]
        x[1:] = U @ ((Uh @ col[1:]) / denom)
        X += t**j * x
        if j < j_max:
            cs[j - 1], width = _extend_basis(Q, Qh, width, x)
            # the two dense products of this order
            g_r[1, j], g_l[1, j] = _ad_dense(G, G @ x, cs[j - 1])
            v_r[1, j], v_l[1, j] = _ad_dense(V, V @ x, cs[j - 1])

    if maj is not None:
        tail_bound, certified = _series_tail(term_norms, t, maj, j_max)
    else:
        tail_bound, certified = 0.0, True

    v_diag = diag_part(V + _border_dense((rest_r, rest_l), Q))
    local = G + t * V
    conj = local + rotation_delta(LocalOp(J, local, v1.M), J, X)
    drift = float(
        np.max(np.abs(np.linalg.eigvalsh(conj) - np.linalg.eigvalsh(local)))
    )
    return StepOperators(
        rect=J,
        g=g,
        v1=v1,
        e0=e0,
        generators=list(xs),
        generator=X,
        basis=Q[:, :width].copy(),
        v_borders=v_borders,
        v_diag_total=LocalOp(J, v_diag, v1.M),
        tail_bound=tail_bound,
        tail_certified=certified,
        gap=gap,
        v1_norm=v1_norm,
        s_norm=float(np.linalg.norm(X)),
        term_norms=term_norms,
        majorant=maj,
        od_residual=offdiag_norm(conj),
        spectrum_drift=drift,
    )
