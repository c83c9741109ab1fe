"""Global block-diagonalization driver.

Walks the steps in flow order and updates the interaction map per step:
the step rectangle's potential is replaced by its block-diagonal series,
every stored potential on a strict superset is conjugated, and every
stored potential overlapping the step rectangle (neither nested way)
contributes a commutator-series term to the minimal rectangle covering it
together with the step rectangle. A new target whose rotation the a-priori
bound ``schwinger.rotation_delta_bound`` already puts at or below the prune
threshold is neither embedded nor rotated; every kept target is summed in
the same order either way, so the skip changes no stored bit.

The flow functions take a ``FlowState`` alone: it holds the model
(``state.spec``) and the position (``len(state.history)`` steps run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Rect, enumerate_steps, minimal_rectangle
from .model import ModelSpec, coupled, initial_interactions
from .schwinger import (
    GAP_FLOOR,
    GapError,
    StepOperators,
    assemble_g,
    check_g_gap,
    generator_exponential,
    lie_schwinger_series,
    rotation_delta,
    rotation_delta_bound,
)
from .tensor import LocalOp, conjugate_on_legs, embed, embedded_sum, op_norm

PRUNE_THRESHOLD = 1e-14


def set_entry(interactions: dict[Rect, LocalOp], key: Rect, op: LocalOp) -> None:
    """Store ``op`` under ``key`` in an interaction map (rectangle -> stored
    potential; absence means zero), or drop the key if ``op``'s norm is
    below the prune threshold. Entry matrices are shared, never mutated."""
    if op.support != key:
        raise ValueError(f"entry support {op.support} does not match key {key}")
    # ||A|| lies between ||A||_F / sqrt(n) and ||A||_F, and between the
    # largest column norm and sqrt(||A||_1 ||A||_inf); the SVD runs only
    # when all four bounds leave the decision open
    mat = op.matrix
    if op.fro_norm <= PRUNE_THRESHOLD:
        keep = False
    elif op.fro_norm > PRUNE_THRESHOLD * np.sqrt(op.dim) or (
        np.linalg.norm(mat, axis=0).max() > PRUNE_THRESHOLD
    ):
        keep = True
    else:
        absolute = np.abs(mat)
        upper = np.sqrt(absolute.sum(0).max() * absolute.sum(1).max())
        keep = upper > PRUNE_THRESHOLD and op_norm(op) > PRUNE_THRESHOLD
    if keep:
        interactions[key] = op
    else:
        interactions.pop(key, None)


@dataclass
class StepRecord:
    """Per-step diagnostics and the data needed to replay the step later.

    A skipped step (no stored potential on its rectangle) keeps the zero
    defaults of the series fields. ``generator`` is the vector X of the step
    generator S = X e0^+ - e0 X^+, or None for a skipped step. ``residual``
    is the consistency oracle's Frobenius distance, or None when the step
    was not checked.
    """

    index: int
    rect: Rect
    circumference: int
    g_gap: float
    e0: float
    regime: str
    s_norm: float = 0.0
    v1_norm: float = 0.0
    tail_bound: float = 0.0
    tail_certified: bool = True
    od_residual: float = 0.0
    spectrum_drift: float = 0.0
    term_norms: list[float] = field(default_factory=list)
    case_b_value: LocalOp | None = None
    generator: np.ndarray | None = None
    residual: float | None = None
    skipped: bool = False


@dataclass(eq=False)
class FlowState:
    """Flow progress: the model, the current map and one record per
    completed step; the steps run in ``enumerate_steps`` order.

    A state hashes by identity: ``expansion`` caches its branch memo per
    state, so a state must not be mutated in place once it has been
    expanded.
    """

    spec: ModelSpec
    interactions: dict[Rect, LocalOp]
    history: list[StepRecord] = field(default_factory=list)
    map_snapshots: list[dict[Rect, LocalOp]] | None = None
    initial_map: dict[Rect, LocalOp] | None = None
    status: str = "running"
    failures: list[str] = field(default_factory=list)


def initial_state(spec: ModelSpec, keep_history: bool = False) -> FlowState:
    imap: dict[Rect, LocalOp] = {}
    for key, op in initial_interactions(spec).items():
        set_entry(imap, key, op)
    return FlowState(
        spec=spec,
        interactions=imap,
        map_snapshots=[] if keep_history else None,
        initial_map=dict(imap),
    )


def regime_of(J_step: Rect, J_target: Rect) -> str:
    """Diagnostic tag for a step size against a target size.

    Large steps win boundary ties; the small-step range is closed on its
    upper end, matching the defining inequalities.
    """
    k = J_step.circumference
    r = J_target.circumference
    cut = int(np.floor(r**0.25))
    if k >= r - cut:
        return "R3"
    if k <= cut:
        return "R1"
    return "R2"


def _transform_map(
    interactions: dict[Rect, LocalOp], J: Rect, ops: StepOperators
) -> dict[Rect, LocalOp]:
    """The map after the step on ``J``, as described in the module docstring."""
    M = ops.v1.M
    new_map = dict(interactions)
    set_entry(new_map, J, ops.v_diag_total)

    # every target strictly containing the step rectangle gets conjugated;
    # overlapping non-nested entries feed their commutator series into the
    # minimal rectangle they span together with the step rectangle, so each
    # target becomes old + (u y u^+ - y) for y = old + those contributions
    contributors = {
        key: [op] for key, op in interactions.items() if key.contains(J) and key != J
    }
    for key, op in interactions.items():
        if not key.overlaps(J) or key.contains(J) or J.contains(key):
            continue
        contributors.setdefault(minimal_rectangle(J, key), []).append(op)

    for target, group in contributors.items():
        old = interactions.get(target)
        # a new target is u y u^+ - y alone; when its a-priori bound, from
        # ||y|| <= sum_k ||op_k||_F, is at or below the prune threshold,
        # set_entry would drop it, so it is neither embedded nor rotated
        if old is None and (
            rotation_delta_bound(ops.generator, sum(op.fro_norm for op in group))
            <= PRUNE_THRESHOLD
        ):
            continue
        # the summation order, contributors in map order after the superset
        # itself, fixes the kept entry's bits
        y = embed(group[0], target).matrix
        for op in group[1:]:
            y = y + embed(op, target).matrix
        new_val = rotation_delta(LocalOp(target, y, M), J, ops.generator)
        if old is not None:
            new_val += old.matrix
        set_entry(new_map, target, LocalOp(target, new_val, M))
    return new_map


def apply_step(
    state: FlowState, j_max: int = 12, force: bool = False
) -> tuple[FlowState, StepOperators | None]:
    """Advance the flow by its next step, the rectangle J after the
    ``len(state.history)`` steps already run; a ValueError once every step
    has run.

    A step with no stored potential on J rotates nothing and returns
    ``None`` for its operators, but its gap is still checked: the inductive
    gap claim concerns the step's local operator either way.
    """
    spec = state.spec
    steps = enumerate_steps(spec.lat)
    if len(state.history) >= len(steps):
        raise ValueError(f"the flow has already run all {len(steps)} steps")
    J = steps[len(state.history)]

    v1 = state.interactions.get(J)
    g, e0 = assemble_g(J, state.interactions, spec.t)
    ops = None if v1 is None else lie_schwinger_series(J, g, e0, v1, spec.t, j_max=j_max)
    gap = check_g_gap(g, e0, J) if ops is None else ops.gap
    if gap < GAP_FLOOR and not force:
        raise GapError(
            f"gap of the local operator on {J} is {gap:.6g} < {GAP_FLOOR}; "
            "the inductive gap hypothesis fails at this coupling"
        )

    series, interactions = {}, state.interactions
    if ops is not None:
        series = dict(
            s_norm=ops.s_norm,
            v1_norm=ops.v1_norm,
            tail_bound=ops.tail_bound,
            tail_certified=ops.tail_certified,
            od_residual=ops.od_residual,
            spectrum_drift=ops.spectrum_drift,
            term_norms=list(ops.term_norms),
            case_b_value=ops.v_diag_total,
            generator=ops.generator,
        )
        interactions = _transform_map(state.interactions, J, ops)
    record = StepRecord(
        index=len(state.history),
        rect=J,
        circumference=J.circumference,
        g_gap=gap,
        e0=e0,
        regime=regime_of(J, spec.lat.full_rect()),
        skipped=ops is None,
        **series,
    )
    snapshots = state.map_snapshots
    return replace(
        state,
        interactions=interactions,
        history=state.history + [record],
        map_snapshots=None if snapshots is None else snapshots + [dict(interactions)],
        failures=list(state.failures),
    ), ops


def assemble_hamiltonian(state: FlowState) -> LocalOp:
    """Full-lattice operator: on-site entries plus t times all other entries."""
    spec = state.spec
    return embedded_sum(coupled(state.interactions.values(), spec.t), spec.lat.full_rect(), spec.M)


def consistency_check(before: LocalOp, state_after: FlowState) -> tuple[float, LocalOp]:
    """Frobenius distance between the recombined map after the last step J
    of ``state_after`` and the honest conjugation of ``before``, the
    full-lattice operator assembled before that step. Also returns the
    operator assembled after the step, which is the next step's ``before``.

    The honest conjugation applies the dense closed-form exp(S_J) to J's
    legs of the whole previous operator, on both sides. Apart from the leg
    permutation it shares no code with the rank-two map update. The
    Frobenius norm bounds the operator norm from above, so a gate on it is
    no looser.
    """
    after = assemble_hamiltonian(state_after)
    rec = state_after.history[-1]
    if rec.skipped:
        # the step carried no potential, so nothing was conjugated
        return float(np.linalg.norm(after.matrix - before.matrix)), after
    conj = conjugate_on_legs(before, rec.rect, generator_exponential(rec.generator))
    return float(np.linalg.norm(after.matrix - conj)), after


@dataclass
class Tolerances:
    spectral: float = 1e-8
    consistency: float = 1e-8
    gap_slack: float = 1e-6


def run_flow(
    spec: ModelSpec,
    j_max: int = 12,
    tolerances: Tolerances | None = None,
    check_consistency: str = "auto",
    force: bool = False,
    keep_history: bool = False,
) -> FlowState:
    """Execute every step in order and leave final verdicts to the verifier.

    ``check_consistency``: one of ``never | final | every-step | auto``
    (auto = every step for N <= 3, final step only otherwise).
    """
    tol = tolerances or Tolerances()
    if check_consistency == "auto":
        check_consistency = "every-step" if spec.lat.N <= 3 else "final"
    if check_consistency not in ("never", "final", "every-step"):
        raise ValueError(f"unknown consistency mode {check_consistency!r}")

    state = initial_state(spec, keep_history=keep_history)
    n_steps = len(enumerate_steps(spec.lat))
    # full-lattice operator before the next checked step; each check hands
    # back the one it assembled after its step
    before = None
    for i in range(n_steps):
        want_check = check_consistency == "every-step" or (
            check_consistency == "final" and i == n_steps - 1
        )
        if want_check and before is None:
            before = assemble_hamiltonian(state)
        state, _ = apply_step(state, j_max=j_max, force=force)
        rec = state.history[-1]
        J = rec.rect
        if want_check:
            residual, before = consistency_check(before, state)
            rec.residual = residual
            if residual > tol.consistency:
                if not force:
                    raise RuntimeError(
                        f"consistency residual {residual:.3g} above tolerance "
                        f"{tol.consistency:.3g} at step {J}"
                    )
                state.failures.append(f"consistency residual {residual:.3g} at step {J}")
        if rec.g_gap < GAP_FLOOR:
            state.failures.append(f"gap {rec.g_gap:.6g} below 1/2 at step {J}")

    # audit the norm-decay hypothesis; violations downgrade, never abort
    for row in norm_decay_audit(state):
        if not row["pass"]:
            r = row["circumference"]
            state.status = "hypothesis-violated"
            state.failures.append(
                f"norm decay hypothesis violated at circumference {r}: "
                f"{row['max_norm']:.6g} > t^({r - 1}/4)"
            )
    if state.status == "running":
        state.status = "completed"
    return state


def max_norm_by_circumference(state: FlowState) -> dict[int, float]:
    out: dict[int, float] = {}
    for key, op in state.interactions.items():
        r = key.circumference
        if r >= 1:
            out[r] = max(out.get(r, 0.0), op.norm)
    return out


def norm_decay_audit(state: FlowState) -> list[dict]:
    """Per-circumference table: max stored norm against t^{(r-1)/4}.

    Circumference-1 rows are informational: the single-step bound there is
    a plain factor 2, not a power of t, so they report but never fail.
    Entries carry their norms (``LocalOp.norm``), so a re-audit takes none.
    """
    t = state.spec.t
    rows = []
    for r, worst in sorted(max_norm_by_circumference(state).items()):
        bound = abs(t) ** ((r - 1) / 4.0)
        rows.append(
            {
                "circumference": r,
                "max_norm": worst,
                "bound": bound,
                "ratio": worst / bound if bound > 0 else float("inf"),
                "pass": bool(r < 2 or worst <= bound + 1e-12),
            }
        )
    return rows
