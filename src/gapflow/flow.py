"""Global block-diagonalization driver.

Walks the steps in flow order and updates the interaction map per step:
the step rectangle's potential is replaced by its block-diagonal series,
every stored potential on a strict superset is conjugated, and every
stored potential overlapping the step rectangle (neither nested way)
contributes a commutator-series term to the minimal rectangle covering it
together with the step rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    Rect,
    enumerate_steps,
    initial_step,
    minimal_rectangle,
)
from .model import ModelSpec, initial_interactions
from .schwinger import (
    GAP_FLOOR,
    GapError,
    StepOperators,
    assemble_g,
    check_g_gap,
    generator_exponential,
    lie_schwinger_series,
    rotation_delta,
)
from .tensor import LocalOp, add_embedded, conjugate_on_legs, embed, op_norm

PRUNE_THRESHOLD = 1e-14


def set_entry(interactions: dict[Rect, LocalOp], key: Rect, op: LocalOp) -> None:
    """Store ``op`` under ``key`` in an interaction map (rectangle -> stored
    potential; absence means zero), or drop the key if ``op``'s norm is
    below the prune threshold. Entry matrices are shared, never mutated."""
    if op.support != key:
        raise ValueError(f"entry support {op.support} does not match key {key}")
    # ||A|| <= ||A||_F <= sqrt(n) ||A||: the SVD runs only when the
    # Frobenius norm leaves the decision open
    fro = float(np.linalg.norm(op.matrix))
    keep = fro > PRUNE_THRESHOLD and (
        fro > PRUNE_THRESHOLD * np.sqrt(op.dim) or op_norm(op) > PRUNE_THRESHOLD
    )
    if keep:
        interactions[key] = op
    else:
        interactions.pop(key, None)


@dataclass
class StepRecord:
    """Per-step diagnostics and the data needed to replay the step later.

    A skipped step (no stored potential on its rectangle) keeps the zero
    defaults of the series fields. ``residual`` is the consistency oracle's
    Frobenius distance, or None when the step was not checked.
    """

    index: int
    rect: Rect
    circumference: int
    g_gap: float
    e0: float
    e0_cross: float
    regime: str
    s_norm: float = 0.0
    v1_norm: float = 0.0
    tail_bound: float = 0.0
    tail_certified: bool = True
    od_residual: float = 0.0
    spectrum_drift: float = 0.0
    term_norms: list[float] = field(default_factory=list)
    majorant_b: list[float] = field(default_factory=list)
    case_b_value: LocalOp | None = None
    residual: float | None = None
    skipped: bool = False


@dataclass
class FlowState:
    """Flow progress: last completed step, current map, generators, diagnostics.

    ``generator_log`` holds, per non-skipped step, the step rectangle and
    the vector X of its generator S = X e0^+ - e0 X^+.
    """

    spec: ModelSpec
    step: Rect
    interactions: dict[Rect, LocalOp]
    generator_log: list[tuple[Rect, np.ndarray]] = field(default_factory=list)
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
        step=initial_step(spec.lat),
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


def _vacuum_cross_energy(J: Rect, interactions: dict[Rect, LocalOp], t: float) -> float:
    """Independent vacuum energy: t times the summed vacuum expectations of
    every strictly smaller stored potential (on-site terms contribute zero)."""
    total = 0.0
    for key, op in interactions.items():
        if key.circumference >= 1 and J.contains(key) and key != J:
            total += float(op.matrix[0, 0].real)
    return t * total


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
    inputs = {
        key: op.matrix for key, op in interactions.items() if key.contains(J) and key != J
    }
    for key, op in interactions.items():
        if not key.overlaps(J) or key.contains(J) or J.contains(key):
            continue
        target = minimal_rectangle(J, key)
        x = embed(op, target).matrix
        inputs[target] = inputs[target] + x if target in inputs else x

    for target, y in inputs.items():
        new_val = rotation_delta(LocalOp(target, y, M), J, ops.generator)
        old = interactions.get(target)
        if old is not None:
            new_val += old.matrix
        set_entry(new_map, target, LocalOp(target, new_val, M))
    return new_map


def apply_step(
    state: FlowState,
    J: Rect,
    spec: ModelSpec,
    j_max: int = 12,
    force: bool = False,
) -> tuple[FlowState, StepOperators | None]:
    """Advance the flow by the single step labelled ``J``.

    A step with no stored potential on ``J`` rotates nothing and returns
    ``None`` for its operators, but its gap is still checked: the inductive
    gap claim concerns the step's local operator either way.
    """
    from .geometry import successor

    expected = successor(state.step, spec.lat)
    if expected != J:
        raise ValueError(f"steps must run in order: expected {expected}, got {J}")

    v1 = state.interactions.get(J)
    g, e0 = assemble_g(J, state.interactions, spec.t)
    e0_cross = _vacuum_cross_energy(J, state.interactions, spec.t)
    ops = None if v1 is None else lie_schwinger_series(J, g, e0, v1, spec.t, j_max=j_max)
    gap = check_g_gap(g, e0, J) if ops is None else ops.gap
    if gap < GAP_FLOOR and not force:
        raise GapError(
            f"gap of the local operator on {J} is {gap:.6g} < {GAP_FLOOR}; "
            "the inductive gap hypothesis fails at this coupling"
        )

    series, logged, interactions = {}, [], state.interactions
    if ops is not None:
        series = dict(
            s_norm=ops.s_norm,
            v1_norm=ops.v1_norm,
            tail_bound=ops.tail_bound,
            tail_certified=ops.tail_certified,
            od_residual=ops.od_residual,
            spectrum_drift=ops.spectrum_drift,
            term_norms=list(ops.term_norms),
            majorant_b=list(ops.majorant.b[: len(ops.term_norms)]) if ops.majorant else [],
            case_b_value=ops.v_diag_total,
        )
        interactions = _transform_map(state.interactions, J, ops)
        logged = [(J, ops.generator)]
    record = StepRecord(
        index=len(state.history),
        rect=J,
        circumference=J.circumference,
        g_gap=gap,
        e0=e0,
        e0_cross=e0_cross,
        regime=regime_of(J, spec.lat.full_rect()),
        skipped=ops is None,
        **series,
    )
    new_state = replace(
        state,
        spec=spec,
        step=J,
        interactions=interactions,
        generator_log=state.generator_log + logged,
        history=state.history + [record],
        failures=list(state.failures),
    )
    if new_state.map_snapshots is not None:
        new_state.map_snapshots.append(dict(interactions))
    return new_state, ops


def assemble_hamiltonian(state: FlowState, spec: ModelSpec) -> LocalOp:
    """Full-lattice operator: on-site entries plus t times all other entries."""
    full = spec.lat.full_rect()
    dim = spec.M**spec.lat.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for key, op in state.interactions.items():
        add_embedded(total, op, full, 1.0 if key.circumference == 0 else spec.t)
    return LocalOp(full, total, spec.M)


def consistency_check(
    before: LocalOp,
    state_after: FlowState,
    J: Rect,
    spec: ModelSpec,
) -> tuple[float, LocalOp]:
    """Frobenius distance between the recombined map after the step on ``J``
    and the honest conjugation of ``before``, the full-lattice operator
    assembled before that step. Also returns the operator assembled after
    the step, which is the next step's ``before``.

    The honest conjugation applies the dense closed-form exp(S_J) to J's
    legs of the whole previous operator, on both sides. Apart from the leg
    permutation it shares no code with the rank-two map update. The
    Frobenius norm bounds the operator norm from above, so a gate on it is
    no looser.
    """
    after = assemble_hamiltonian(state_after, spec)
    rec = state_after.history[-1]
    if rec.rect != J:
        raise ValueError(f"last step of the flow is {rec.rect}, not {J}")
    if rec.skipped:
        # the step carried no potential, so nothing was conjugated
        return float(np.linalg.norm(after.matrix - before.matrix)), after
    _, x = state_after.generator_log[-1]
    conj = conjugate_on_legs(before, J, generator_exponential(x))
    return float(np.linalg.norm(after.matrix - conj)), after


@dataclass
class Tolerances:
    spectral: float = 1e-8
    projector: float = 1e-12
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
    steps = enumerate_steps(spec.lat)
    # full-lattice operator before the next checked step; each check hands
    # back the one it assembled after its step
    before = None
    for i, J in enumerate(steps):
        want_check = check_consistency == "every-step" or (
            check_consistency == "final" and i == len(steps) - 1
        )
        if want_check and before is None:
            before = assemble_hamiltonian(state, spec)
        state, _ = apply_step(state, J, spec, j_max=j_max, force=force)
        if want_check:
            residual, before = consistency_check(before, state, J, spec)
            state.history[-1].residual = residual
            if residual > tol.consistency:
                if not force:
                    raise RuntimeError(
                        f"consistency residual {residual:.3g} above tolerance "
                        f"{tol.consistency:.3g} at step {J}"
                    )
                state.failures.append(f"consistency residual {residual:.3g} at step {J}")
        rec = state.history[-1]
        if rec.g_gap < GAP_FLOOR:
            state.failures.append(f"gap {rec.g_gap:.6g} below 1/2 at step {J}")

    # audit the norm-decay hypothesis; violations downgrade, never abort
    for r, worst in max_norm_by_circumference(state).items():
        if r >= 2 and worst > abs(spec.t) ** ((r - 1) / 4.0) + 1e-12:
            state.status = "hypothesis-violated"
            state.failures.append(
                f"norm decay hypothesis violated at circumference {r}: "
                f"{worst:.6g} > t^({r - 1}/4)"
            )
    if state.status == "running":
        state.status = "completed"
    return state


def max_norm_by_circumference(state: FlowState) -> dict[int, float]:
    out: dict[int, float] = {}
    for key, op in state.interactions.items():
        r = key.circumference
        if r >= 1:
            out[r] = max(out.get(r, 0.0), op_norm(op))
    return out
