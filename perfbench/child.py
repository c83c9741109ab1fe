"""One benchmark iteration in a fresh process.

Pins BLAS to one thread before numpy is imported, sets the workload up
from the seed, runs the timed body, records peak RSS, checks the output
independently, and writes one JSON record to ``--out``. With ``--trace``
the public gapflow functions are wrapped for the set-up and the body (not
the check) and the spans are written to that path.

Started by ``run.py``; not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

BLAS_THREADS = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _openblas() -> dict:
    """Thread count and build string reported by the loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"blas_threads": threads(), "openblas": config().decode()}
    return {"blas_threads": None, "openblas": None}


def environment() -> dict:
    import platform

    import numpy
    import scipy

    env = {
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    try:
        env.update(_openblas())
    except OSError as exc:
        env.update({"blas_threads": None, "openblas": f"unavailable: {exc}"})
    return env


def main() -> int:
    # before anything imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here")
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    record: dict = {"ok": False}
    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
            tracer.active = True
        ctx = workloads.setup(wl, args.seed, args.workdir)
        record["setup_s"] = time.monotonic() - args.spawned
        if not args.setup_only:
            start = time.perf_counter()
            out = workloads.run(wl, ctx)
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
                tracer.dump(args.trace)
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.corrupt:
                workloads.corrupt(wl, ctx, out)
            record["problems"] = workloads.check(wl, ctx, out)
        record["env"] = environment()
        record["ok"] = not record.get("problems")
    except Exception:
        record["error"] = traceback.format_exc()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
