"""Configuration parsing, run orchestration, and report emission.

Config files are JSON with a strict schema: unknown keys anywhere are
rejected so typos cannot silently disable a check. Reports are JSON and
reruns are byte-identical apart from the timestamp line; the per-step CSV
is the plotting interface.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .flow import CONSISTENCY_MODES, Tolerances, run_flow
from .geometry import LatticeSpec, Rect
from .model import ModelSpec, default_onsite, random_model
from .verify import verification_bytes, verify_main_theorem

CSV_COLUMNS = [
    "step_index",
    "k_vector",
    "q_vector",
    "circumference",
    "g_gap",
    "e0",
    "s_norm",
    "tail_bound",
    "residual",
    "regime_tag",
]

_TOP_KEYS = {
    "d",
    "N",
    "M",
    "t",
    "seed",
    "onsite",
    "potentials",
    "j_max",
    "tolerances",
    "checks",
    "output",
}
_TOL_KEYS = {f.name for f in fields(Tolerances)}
_CHECK_KEYS = {"consistency"}
_OUTPUT_KEYS = {"report", "csv"}
_POTENTIAL_KEYS = {"k", "q", "matrix"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    d: int
    N: int
    t: float
    M: int = 2
    seed: int = 0
    onsite: str | list = "default"
    potentials: str | list = "random"
    j_max: int = 12
    tolerances: Tolerances = field(default_factory=Tolerances)
    consistency_mode: str = "auto"
    report_path: str | None = None
    csv_path: str | None = None


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _is_int(value) -> bool:
    # a JSON boolean parses to a Python bool, which is an int
    return isinstance(value, int) and not isinstance(value, bool)


def _number(mapping: dict, key: str, default, kind: type, minimum=None, where: str = ""):
    """``mapping[key]`` (``default`` when absent) as a finite ``kind``, int or
    float, of at least ``minimum``; JSON booleans are refused."""
    value = mapping.get(key, default)
    integer = _is_int(value)
    if not (integer or (kind is float and isinstance(value, float) and math.isfinite(value))):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where}{key} must be {what}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}{key} must be >= {minimum}, got {value!r}")
    return kind(value)


def parse_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "the top level")
    for req in ("d", "N", "t"):
        if req not in raw:
            raise ConfigError(f"{path}: missing required key {req!r}")

    tol_raw = raw.get("tolerances", {})
    _reject_unknown(tol_raw, _TOL_KEYS, "'tolerances'")
    tol = Tolerances(
        **{key: _number(tol_raw, key, None, float, 0, "tolerances.") for key in tol_raw}
    )

    checks = raw.get("checks", {})
    _reject_unknown(checks, _CHECK_KEYS, "'checks'")
    mode = checks.get("consistency", "auto")
    if mode not in CONSISTENCY_MODES:
        modes = "|".join(CONSISTENCY_MODES)
        raise ConfigError(f"checks.consistency must be {modes}, got {mode!r}")

    output = raw.get("output", {})
    _reject_unknown(output, _OUTPUT_KEYS, "'output'")
    if not all(isinstance(path, str) for path in output.values()):
        raise ConfigError("output paths must be strings")

    potentials = raw.get("potentials", "random")
    if isinstance(potentials, list):
        for i, entry in enumerate(potentials):
            if not isinstance(entry, dict):
                raise ConfigError(f"potentials[{i}] must be an object")
            _reject_unknown(entry, _POTENTIAL_KEYS, f"potentials[{i}]")
            for req in ("k", "q", "matrix"):
                if req not in entry:
                    raise ConfigError(f"potentials[{i}] is missing {req!r}")
            for key in ("k", "q"):
                if not (isinstance(entry[key], list) and all(map(_is_int, entry[key]))):
                    raise ConfigError(
                        f"potentials[{i}].{key} must be a list of integers, got {entry[key]!r}"
                    )
            _check_entries(entry["matrix"], f"potentials[{i}].matrix")
    elif potentials != "random":
        raise ConfigError("potentials must be \"random\" or a list of entries")

    onsite = raw.get("onsite", "default")
    if not (onsite == "default" or isinstance(onsite, list)):
        raise ConfigError("onsite must be \"default\" or a matrix")
    if onsite != "default":
        _check_entries(onsite, "onsite")

    return RunConfig(
        d=_number(raw, "d", None, int, 1),
        N=_number(raw, "N", None, int, 2),
        t=_number(raw, "t", None, float),
        M=_number(raw, "M", 2, int, 2),
        seed=_number(raw, "seed", 0, int, 0),
        onsite=onsite,
        potentials=potentials,
        j_max=_number(raw, "j_max", 12, int, 1),
        tolerances=tol,
        consistency_mode=mode,
        report_path=output.get("report"),
        csv_path=output.get("csv"),
    )


def _check_entries(matrix, what: str) -> None:
    """Refuse a config matrix with a value that is not a finite JSON number;
    its shape (rows of numbers or of [re, im] pairs) is checked when it is built."""
    values = [matrix]
    while values:
        value = values.pop()
        if isinstance(value, list):
            values += value
        elif not (_is_int(value) or (isinstance(value, float) and math.isfinite(value))):
            raise ConfigError(
                f"{what}: entries must be finite numbers or [re, im] pairs, got {value!r}"
            )


def _matrix_from_config(entry: list, what: str) -> np.ndarray:
    try:
        mat = np.array(entry, dtype=complex)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: matrix entries must be numbers or [re, im] pairs") from None
    if mat.ndim == 3 and mat.shape[2] == 2:
        mat = mat[..., 0] + 1j * mat[..., 1]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"{what}: matrix must be square")
    return mat


def build_model(config: RunConfig) -> ModelSpec:
    lat = LatticeSpec(config.d, config.N)
    onsite = (
        default_onsite(config.M)
        if config.onsite == "default"
        else _matrix_from_config(config.onsite, "onsite")
    )
    if config.potentials == "random":
        return random_model(lat, config.M, config.t, config.seed, onsite=onsite)
    pots = []
    for i, entry in enumerate(config.potentials):
        J = Rect(tuple(entry["k"]), tuple(entry["q"]))
        pots.append((J, _matrix_from_config(entry["matrix"], f"potentials[{i}]")))
    return ModelSpec(lat, config.M, onsite, pots, config.t, rng_seed=config.seed)


def write_csv(report: dict, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for step in report["steps"]:
            writer.writerow(
                [
                    step["index"],
                    " ".join(str(x) for x in step["k"]),
                    " ".join(str(x) for x in step["q"]),
                    step["circumference"],
                    step["g_gap"],
                    step["e0"],
                    step["s_norm"],
                    "" if step["tail_bound"] is None else step["tail_bound"],
                    "" if step["residual"] is None else step["residual"],
                    step["regime"],
                ]
            )


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: RunConfig, force: bool = False) -> int:
    """Execute the flow and verify it; 0 pass, 1 check failure,
    2 configuration or output error, flow abort, a forced run whose map
    stops being Hermitian, or a lattice whose verification cannot fit in
    physical memory (refused before the model is built)."""
    outputs = [path for path in (config.report_path, config.csv_path) if path is not None]
    for path in outputs:
        if not (path and os.path.isdir(os.path.dirname(path) or ".")):
            problem = "no such directory"
        elif os.path.isdir(path):
            problem = "it is a directory"
        elif len(outputs) == 2 and len({os.path.realpath(p) for p in outputs}) == 1:
            problem = "the report and the CSV name the same file"
        else:
            continue
        print(f"error: cannot write output {path!r}: {problem}", file=sys.stderr)
        return 2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        # refused from d, N and M alone, before the model is drawn
        lat = LatticeSpec(config.d, config.N)
        need = verification_bytes(lat, config.M)
        if need > have:
            dim = config.M**lat.n_sites
            raise ConfigError(
                f"verification forms three {dim} x {dim} complex matrices, {need} bytes, "
                f"more than the {have} bytes of physical memory"
            )
        spec = build_model(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        state = run_flow(
            spec,
            j_max=config.j_max,
            tolerances=config.tolerances,
            check_consistency=config.consistency_mode,
            force=force,
        )
        report = verify_main_theorem(state)
    except (RuntimeError, ValueError) as exc:
        # a forced run whose map went non-finite fails the Hermiticity check
        # of the first norm it takes, in the flow or in verification
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    try:
        if config.report_path:
            write_report(report, config.report_path)
        if config.csv_path:
            write_csv(report, config.csv_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    status = report["status"]
    print(f"status: {status}")
    for clause in report["failed_clauses"]:
        print(f"failed: {clause}")
    final = report["final"]
    print(
        f"delta: {final['delta']:.9g}  min step gap: {final['min_step_gap']:.9g}  "
        f"vacuum off-block: {final['pvac_offblock']:.3g}"
    )
    return 0 if status == "pass" else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapflow",
        description="Iterative local block-diagonalization of a gapped lattice "
        "Hamiltonian, with spectral verification.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument(
        "--force",
        action="store_true",
        help="continue past gap, truncation and consistency failures instead of aborting "
        "(exploratory runs)",
    )
    parser.add_argument(
        "--check-consistency",
        choices=CONSISTENCY_MODES,
        default=None,
        help="when to compare the map update against the honest conjugation: auto, "
        "never or every-step; auto, the config default, is every-step for N <= 3 and "
        "never otherwise",
    )
    parser.add_argument("--emit-csv", default=None, help="write per-step diagnostics CSV here")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

    try:
        config = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check_consistency is not None:
        config.consistency_mode = args.check_consistency
    if args.emit_csv is not None:
        config.csv_path = args.emit_csv
    if args.seed is not None:
        config.seed = args.seed
    return run(config, force=args.force)


if __name__ == "__main__":
    sys.exit(main())
