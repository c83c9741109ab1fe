"""Global block-diagonalization driver.

Walks the steps in flow order and updates the interaction map per step:
the step rectangle's potential is replaced by its block-diagonal series,
every stored potential on a strict superset is conjugated, and every
stored potential overlapping the step rectangle (neither nested way)
contributes a commutator-series term to the minimal rectangle covering it
together with the step rectangle. Every rotation goes through the step's
``schwinger.RotationPlane``. A new target whose rotation the plane's
a-priori bound (``RotationPlane.bound_factor``) already puts at or below
the prune threshold is neither embedded nor rotated; every kept target is
summed in the same order either way, so the skip changes no stored bit.

The flow functions take a ``FlowState`` alone: it holds the model
(``state.spec``) and the position (``len(state.history)`` steps run).

Steps of one circumference form a level, and ``run_flow`` computes the
series of a level's steps together when the level starts. That is sound
because a level's series inputs are fixed once it starts. A step's inputs
are its potential V_J and the stored entries strictly inside J (G_J and
its vacuum energy). The step on J writes only keys that contain J: J
itself, its supersets and the minimal rectangles [J u K]. A key that
contains J lies inside another rectangle J' only if J' contains J, which a
rectangle of J's circumference does only when it is J. So no step of a
level changes another's inputs. Each step is still judged and committed on
its own, in flow order, by ``apply_step``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

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
    series_stack,
    stack_limit,
)
from .tensor import LocalOp, conjugate_on_legs, embed, embedded_sum

PRUNE_THRESHOLD = 1e-14
# when ``run_flow`` runs the consistency oracle
CONSISTENCY_MODES = ("auto", "never", "every-step")


def set_entry(interactions: dict[Rect, LocalOp], key: Rect, op: LocalOp) -> None:
    """Store ``op`` under ``key`` in an interaction map (rectangle -> stored
    potential; absence means zero), or drop the key if ``op``'s norm is
    below the prune threshold. Entry matrices are shared, never mutated."""
    if op.support != key:
        raise ValueError(f"entry support {op.support} does not match key {key}")
    # ||A|| lies between ||A||_F / sqrt(n) and ||A||_F and is at least the
    # largest column norm; the entry's cached norm, which the audit reads
    # later anyway, decides only when these bounds do not (a potential is
    # Hermitian, so a non-Hermitian entry is refused there)
    if op.fro_norm <= PRUNE_THRESHOLD:
        keep = False
    elif op.fro_norm > PRUNE_THRESHOLD * np.sqrt(op.dim) or (
        np.linalg.norm(op.matrix, axis=0).max() > PRUNE_THRESHOLD
    ):
        keep = True
    else:
        keep = op.norm > PRUNE_THRESHOLD
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
    was not checked. A record's index is its position in the history.
    Every other field is named as the ``StepOperators`` field a series step
    copies it from; ``tail_bound`` is None outside the certified radius.
    """

    rect: Rect
    g_gap: float
    e0: float
    s_norm: float = 0.0
    v1_norm: float = 0.0
    tail_bound: float | None = 0.0
    od_residual: float = 0.0
    step_defect: float = 0.0
    v_diag_total: LocalOp | None = None
    generator: np.ndarray | None = None
    residual: float | None = None

    @property
    def skipped(self) -> bool:
        return self.generator is None

    @property
    def tail_certified(self) -> bool:
        return self.tail_bound is not None


@dataclass
class Tolerances:
    spectral: float = 1e-8
    consistency: float = 1e-8
    gap_slack: float = 1e-6


@dataclass(eq=False)
class FlowState:
    """Flow progress: the model, the run settings (series truncation order
    ``j_max`` and ``tolerances``), the current map and one record per
    completed step; the steps run in ``enumerate_steps`` order.

    A state hashes by identity: ``expansion`` caches its branch memo per
    state, so a state must not be mutated in place once it has been
    expanded.
    """

    spec: ModelSpec
    interactions: dict[Rect, LocalOp]
    initial_map: dict[Rect, LocalOp]
    j_max: int = 12
    tolerances: Tolerances = field(default_factory=Tolerances)
    history: list[StepRecord] = field(default_factory=list)
    map_snapshots: list[dict[Rect, LocalOp]] | None = None

    @property
    def failures(self) -> list[str]:
        """``failed_claims(self)``, however the flow ran."""
        return failed_claims(self)

    @property
    def status(self) -> str:
        """``running`` until every step has run, then ``hypothesis-violated``
        if ``verdict`` says so for ``failures``, else ``completed``."""
        if len(self.history) < len(enumerate_steps(self.spec.lat)):
            return "running"
        violated = verdict(self.failures) == "hypothesis-violated"
        return "hypothesis-violated" if violated else "completed"


def initial_state(
    spec: ModelSpec,
    keep_history: bool = False,
    j_max: int = 12,
    tolerances: Tolerances | None = None,
) -> FlowState:
    imap: dict[Rect, LocalOp] = {}
    for key, op in initial_interactions(spec).items():
        set_entry(imap, key, op)
    return FlowState(
        spec=spec,
        interactions=imap,
        initial_map=dict(imap),
        j_max=j_max,
        tolerances=tolerances or Tolerances(),
        map_snapshots=[] if keep_history else None,
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
    M = ops.v_diag_total.M
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
        if (
            old is None
            and ops.plane.bound_factor * sum(op.fro_norm for op in group) <= PRUNE_THRESHOLD
        ):
            continue
        # the summation order, contributors in map order after the superset
        # itself, fixes the kept entry's bits; they are added in place into
        # one buffer
        if len(group) == 1:
            y = embed(group[0], target)
        else:
            y = embedded_sum([(1.0, op) for op in group], target, M)
        new_val = rotation_delta(y, J, ops.plane)
        if old is not None:
            new_val += old.matrix
        set_entry(new_map, target, LocalOp(target, new_val, M))
    return new_map


def apply_step(
    state: FlowState, force: bool = False, terms: StepOperators | None = None
) -> tuple[FlowState, StepOperators | None]:
    """Advance the flow by its next step, the rectangle J after the
    ``len(state.history)`` steps already run; a ValueError once every step
    has run. Unless ``force``, a GapError when ``_step_failures`` fails the
    step's gap, and a RuntimeError when it fails the step's truncation.
    ``terms`` is J's series from ``level_series`` on a state of the same
    level, if one has been run; otherwise the step runs its own through
    ``series_stack``, as a stack of one. Either way
    ``lie_schwinger_series`` warns about its gap.

    A step with no stored potential on J rotates nothing and returns
    ``None`` for its operators, but its gap is still checked: the inductive
    gap claim concerns the step's local operator either way.
    """
    spec = state.spec
    steps = enumerate_steps(spec.lat)
    if len(state.history) >= len(steps):
        raise ValueError(f"the flow has already run all {len(steps)} steps")
    J = steps[len(state.history)]
    if terms is not None and terms.rect != J:
        raise ValueError(f"series of {terms.rect} handed to the step on {J}")

    if terms is None:
        g = assemble_g(J, state.interactions, spec.t)
        v1 = state.interactions.get(J)
        if v1 is not None:
            terms = series_stack([(J, g, v1)], spec.t, state.j_max)[0]
    if terms is None:
        ops = None
        record = StepRecord(
            rect=J, g_gap=float(check_g_gap(g.matrix)), e0=float(g.matrix[0, 0].real)
        )
    else:
        ops = lie_schwinger_series(terms)
        names = [f.name for f in fields(StepRecord) if f.name != "residual"]
        record = StepRecord(**{name: getattr(ops, name) for name in names})
    # the record has no residual yet, so only its gap and truncation can fail
    failed = _step_failures(record, state.tolerances)
    if failed and not force:
        raise _abort(failed[0], state.tolerances)

    interactions = state.interactions if ops is None else _transform_map(state.interactions, J, ops)
    snapshots = state.map_snapshots
    return replace(
        state,
        interactions=interactions,
        history=state.history + [record],
        map_snapshots=None if snapshots is None else snapshots + [dict(interactions)],
    ), ops


def level_series(state: FlowState) -> dict[Rect, StepOperators]:
    """The series of the steps left in the level of the state's next step,
    for those ``stack_limit`` lets share a stacked run, keyed by rectangle.
    """
    spec = state.spec
    steps = enumerate_steps(spec.lat)[len(state.history) :]
    groups: dict[int, list] = {}
    for J in steps:
        if J.circumference != steps[0].circumference:
            break
        v1 = state.interactions.get(J)
        if v1 is None or stack_limit(v1.dim, state.j_max) == 1:
            continue
        groups.setdefault(v1.dim, []).append((J, assemble_g(J, state.interactions, spec.t), v1))
    return {
        terms.rect: terms
        for group in groups.values()
        for terms in series_stack(group, spec.t, state.j_max)
    }


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
    conj -= after.matrix
    return float(np.linalg.norm(conj)), after


def run_flow(
    spec: ModelSpec,
    j_max: int = 12,
    tolerances: Tolerances | None = None,
    check_consistency: str = "auto",
    force: bool = False,
    keep_history: bool = False,
) -> FlowState:
    """Execute every step in order. A failed norm-decay row does not abort:
    it shows in ``state.failures`` and makes ``state.status``
    ``hypothesis-violated``.

    ``check_consistency``: one of ``CONSISTENCY_MODES`` (auto = every-step
    for N <= 3, never otherwise). Every-step runs the consistency oracle on
    each step that ran a series (a skipped step conjugates nothing, so its
    residual would be zero by construction) and, unless ``force``, raises a
    RuntimeError when a residual fails. In every mode the truncation clause
    judges each series step's measured step defect.
    """
    if check_consistency not in CONSISTENCY_MODES:
        raise ValueError(f"unknown consistency mode {check_consistency!r}")
    if check_consistency == "auto":
        check_consistency = "every-step" if spec.lat.N <= 3 else "never"

    state = initial_state(spec, keep_history, j_max, tolerances)
    steps = enumerate_steps(spec.lat)
    # full-lattice operator before the next checked step; each check hands
    # back the one it assembled after its step
    before = assemble_hamiltonian(state) if check_consistency == "every-step" else None
    level: dict[Rect, StepOperators] = {}
    for i, J in enumerate(steps):
        if i == 0 or J.circumference != steps[i - 1].circumference:
            level = level_series(state)
        # drop the step's operators (G and the replaced V among them) at
        # once, before the oracle or the next level's series
        state = apply_step(state, force=force, terms=level.pop(J, None))[0]
        rec = state.history[-1]
        if before is None or rec.skipped:
            continue
        rec.residual, before = consistency_check(before, state)
        # apply_step has passed the gap and the truncation, so only the
        # residual can fail
        failed = _step_failures(rec, state.tolerances)
        if failed and not force:
            raise _abort(failed[0], state.tolerances)
    return state


def _abort(clause: str, tolerances: Tolerances) -> RuntimeError:
    """The error that aborts a flow on a failed step claim: a GapError for
    the gap, a RuntimeError naming the tolerance otherwise."""
    if clause.startswith("step-gap:"):
        return GapError(f"{clause}; the inductive gap hypothesis fails at this coupling")
    return RuntimeError(f"{clause}, above tolerance {tolerances.consistency:.3g}")


def _step_failures(rec: StepRecord, tolerances: Tolerances) -> list[str]:
    """The failed claims of one step, in report wording: its gap below
    ``GAP_FLOOR - gap_slack`` (the inductive gap hypothesis), its step
    defect (the truncation) and its checked residual above
    ``tolerances.consistency``. A NaN fails each."""
    failed = []
    if not rec.g_gap >= GAP_FLOOR - tolerances.gap_slack:
        failed.append(f"step-gap: gap {rec.g_gap:.9g} below 1/2 at step {rec.rect}")
    if not rec.step_defect <= tolerances.consistency:
        failed.append(f"truncation: step defect {rec.step_defect:.3g} at step {rec.rect}")
    if rec.residual is not None and not rec.residual <= tolerances.consistency:
        failed.append(f"consistency: residual {rec.residual:.3g} at step {rec.rect}")
    return failed


def failed_claims(state: FlowState) -> list[str]:
    """Every failed per-step claim of the flow, judged with
    ``state.tolerances`` and in step order, then every failed norm-decay
    row: the verdicts ``FlowState`` and ``verify_main_theorem`` share."""
    failed = [clause for rec in state.history for clause in _step_failures(rec, state.tolerances)]
    for row in norm_decay_audit(state):
        if not row["pass"]:
            failed.append(
                f"norm-decay: circumference {row['circumference']} norm "
                f"{row['max_norm']:.6g} above bound {row['bound']:.6g}"
            )
    return failed


def verdict(clauses: list[str]) -> str:
    """The run status of a list of failed clauses, however the flow ran:
    ``hypothesis-violated`` if a norm-decay clause failed, else ``fail`` if
    any clause failed, else ``pass``."""
    if any(clause.startswith("norm-decay:") for clause in clauses):
        return "hypothesis-violated"
    return "fail" if clauses else "pass"


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
