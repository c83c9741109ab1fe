"""gapflow benchmark: one workload, measured for a fixed time, in fresh processes.

    python3 perfbench/run.py --workload chain_d1n8 --seed 1 --seconds 40 --trace 0

Every iteration is a child process (``child.py``) that sets the workload up
from the seed, runs it with BLAS pinned to one thread, and checks its output
independently. Iterations repeat until the next one would overrun
``--seconds`` (at least one always runs).

``--trace 0`` reports the end-to-end metrics: the medians over iterations of
``wall_s`` and ``peak_rss_mb``, and the median ``setup_s`` over iterations
plus set-up-only children run before and after them. ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, with ``trace.overhead_s`` the difference of the median
traced and untraced ``wall_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the run environment and
a summary. Exits 2 without a result when gapflow cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracing import PER_LAYER, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES_FIRST = 2  # set-up-only children before the iterations
SETUP_SAMPLES_MAX = 10  # set-up-only children fill spare time up to this many samples
RUN_LIMIT_S = 170.0  # every child is stopped by then, so a run ends within 180 s


class SetupFailed(RuntimeError):
    """The program could not even be set up; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, deadline: float, corrupt: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.corrupt = corrupt
        self.hard_stop = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.env: dict | None = None

    def child(self, setup_only: bool = False, trace: bool = False) -> tuple[dict, float]:
        """Run one child to completion; return its record and elapsed time."""
        self.count += 1
        tag = f"{self.count:03d}"
        cwd = os.path.join(self.workdir, tag)
        os.mkdir(cwd)
        out = os.path.join(cwd, "record.json")
        cmd = [
            sys.executable,
            CHILD,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", cwd,
            "--out", out,
            "--run-id", tag,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", os.path.join(cwd, "spans.json")]
        if self.corrupt:
            cmd.append("--corrupt")
        timeout = max(self.hard_stop - time.monotonic(), 1.0)
        spawned = time.monotonic()
        cmd += ["--spawned", repr(spawned)]
        try:
            proc = subprocess.run(
                cmd,
                cwd=cwd,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            error = f"child stopped after {timeout:.0f} s"
            return {"ok": False, "error": error}, time.monotonic() - spawned
        elapsed = time.monotonic() - spawned
        try:
            with open(out) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            record = {"ok": False}
        if proc.returncode != 0:
            record["ok"] = False
            record.setdefault("error", proc.stderr.decode(errors="replace")[-2000:])
        if "setup_s" not in record:
            raise SetupFailed(record.get("error", "child wrote no record"))
        if trace and "wall_s" in record:
            record["layers"] = layer_metrics(load_spans(os.path.join(cwd, "spans.json")))
            shutil.copy(os.path.join(cwd, "spans.json"), os.path.join(OUT_DIR, f"spans-{self.workload}.json"))
        self.env = self.env or record.get("env")
        shutil.rmtree(cwd)
        return record, elapsed

    def fits(self, estimate: float) -> bool:
        return time.monotonic() + estimate <= self.deadline


def measure(runner: Runner) -> tuple[list[dict], list[float]]:
    """Untraced iterations between set-up-only children; returns the
    iteration records and every set-up sample."""
    setups = []
    probe_cost = 0.0
    for _ in range(SETUP_PROBES_FIRST):
        rec, elapsed = runner.child(setup_only=True)
        setups.append(rec["setup_s"])
        probe_cost = max(probe_cost, elapsed)
    iters, costs = [], []
    while not iters or runner.fits(median(costs)):
        rec, elapsed = runner.child()
        iters.append(rec)
        costs.append(elapsed)
        if "wall_s" not in rec:
            break
        setups.append(rec["setup_s"])
    while len(setups) < SETUP_SAMPLES_MAX and runner.fits(probe_cost):
        rec, elapsed = runner.child(setup_only=True)
        setups.append(rec["setup_s"])
    return iters, setups


def measure_traced(runner: Runner) -> tuple[list[dict], list[dict]]:
    """Alternate untraced and traced iterations; returns both lists."""
    plain, traced, costs = [], [], []
    while not traced or runner.fits(median(costs)):
        pair = 0.0
        for bucket, trace in ((plain, False), (traced, True)):
            rec, elapsed = runner.child(trace=trace)
            bucket.append(rec)
            pair += elapsed
        costs.append(pair)
        if not all("wall_s" in r for r in plain + traced):
            break
    return plain, traced


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the gapflow sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gapflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def summary(label: str, values: list[float], unit: str) -> str:
    line = f"{label}: median {median(values):.4f} {unit}, n={len(values)}"
    if len(values) >= 4:
        q1, _, q3 = quantiles(values, n=4)
        line += f", quartiles {q1:.4f}..{q3:.4f}"
    return line + f", range {min(values):.4f}..{max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--corrupt",
        action="store_true",
        help="self-test: perturb every output before its check, so every iteration must fail",
    )
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child instead of leaving it orphaned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "gapflow", "__init__.py")):
        print(f"error: no gapflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    runner = Runner(
        args.workload, args.seed, workdir, time.monotonic() + args.seconds, args.corrupt
    )
    try:
        if args.trace:
            plain, traced = measure_traced(runner)
            iters = plain + traced
        else:
            iters, setups = measure(runner)
    except SetupFailed as exc:
        print(f"error: gapflow could not be set up:\n{exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in iters if not r["ok"]]
    for rec in failed:
        print(f"failed iteration: {rec.get('problems') or rec.get('error')}", file=sys.stderr)
    env = dict(runner.env or {}, workload=args.workload, seed=args.seed,
               git_sha=git_sha(), src_digest=source_digest())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"iterations: {len(iters)} attempted, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(iters):.4f}")

    metrics = {}
    if args.trace:
        plain_wall = [r["wall_s"] for r in plain if "wall_s" in r]
        traced_wall = [r["wall_s"] for r in traced if "wall_s" in r]
        layers = [r["layers"] for r in traced if "layers" in r]
        if not (plain_wall and layers):
            print("error: no iteration produced timings", file=sys.stderr)
            return 1
        print(summary("untraced wall_s", plain_wall, "s"))
        print(summary("traced wall_s", traced_wall, "s"))
        for name, unit, _better in PER_LAYER:
            if name == "trace.overhead_s":
                value = median(traced_wall) - median(plain_wall)
            else:
                value = median([lay[name] for lay in layers])
            metrics[name] = {"value": value, "unit": unit}
    else:
        wall = [r["wall_s"] for r in iters if "wall_s" in r]
        rss = [r["peak_rss_mb"] for r in iters if "peak_rss_mb" in r]
        if not wall:
            print("error: no iteration produced timings", file=sys.stderr)
            return 1
        print(summary("wall_s", wall, "s"))
        print(summary("setup_s", setups, "s"))
        print(summary("peak_rss_mb", rss, "MB"))
        metrics = {
            "wall_s": {"value": median(wall), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(rss), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(iters),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
