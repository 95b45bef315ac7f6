"""Draw-throughput benchmark for pass-trihybrid.

    python3 perfbench/run.py --workload mc_region --seed 424242 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it are the environment stamp and a table of
every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 11
DEFAULT_SEED = 424242
UNITS = {
    "us_per_draw": "us",
    "wall_us_per_draw": "us",
    "snr_bound_unchecked_rows": "rows",
    "snr_bound_defect_rows": "rows",
    "setup_s": "s",
    "wall_setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "infeasible_frac": "ratio",
    "config.load_config.ms": "ms",
    "placement.refine_all.infeasible_frac": "ratio",
    "placement.redistributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name.endswith("self_us_per_draw"):
        return "us"
    if name.endswith("calls_per_draw"):
        return "calls/draw"
    return UNITS[name]


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import pass_trihybrid from this checkout's ``src/`` only."""
    if not (SRC / "pass_trihybrid" / "__init__.py").is_file():
        raise LibraryMissing(f"no pass_trihybrid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pass_trihybrid

    if SRC.resolve() not in Path(pass_trihybrid.__file__).resolve().parents:
        raise LibraryMissing(f"pass_trihybrid was imported from {pass_trihybrid.__file__}")
    return pass_trihybrid


def source_commit() -> str:
    """Commit of the checkout, or 'none' when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    """Short SHA-256 of the library sources, which names the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pass_trihybrid").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def environment_stamp(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median time from starting a fresh process to its 'ready' line, at the
    reference speed and raw."""
    import speed

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    raw, scaled = [], []
    for _ in range(repeats):
        before = speed.steady_probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        ref = (before + speed.steady_probe()) / 2
        raw.append(elapsed)
        scaled.append(elapsed / ref * speed.REFERENCE_S)
    return statistics.median(scaled), statistics.median(raw)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the table's extra rows."""
    import harness
    from tracing import LOAD_CONFIG, Tracer

    load = Tracer((LOAD_CONFIG,))
    with load if trace else contextlib.nullcontext():
        work = harness.build(workload, seed, tiny)
    gate = harness.Gate()
    digests = harness.check_reference(work, gate)  # also the untimed warm-up
    extra = {
        "infeasible_frac": gate.infeasible / max(gate.draws, 1),
        "snr_bound_unchecked_rows": gate.uneven,
        "snr_bound_defect_rows": gate.uneven_out_of_bounds,
    }
    absent: list[str] = []
    if trace:
        metrics, absent = harness.per_layer(work, seconds, gate, load)
    else:
        rounds = harness.end_to_end(work, seconds, gate)
        setup, setup_raw = setup_seconds(workload, seed, setup_repeats)
        metrics = {
            "us_per_draw": rounds.us_per_draw(work),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra["wall_us_per_draw"] = rounds.us_per_draw(work, scaled=False)
        extra["wall_setup_s"] = setup_raw
    extra["failed_frac"] = gate.failed / max(gate.attempted, 1)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, {"extra": extra, "absent": absent, "draws": work.draws, "digests": digests}


def print_table(workload: str, result: dict, info: dict) -> None:
    gate = "recorded digests and invariants" if info["digests"] else "invariants (no digest for this seed)"
    print(f"workload {workload}: {info['draws']} draws per round; "
          f"{result['attempted']} CSV rows checked against {gate}, {result['failed']} failed")
    extra = info["extra"]
    if extra["snr_bound_unchecked_rows"]:
        print(f"  known library defect: analysis.snr_bounds assumes N/2 PAs on each side of the user; "
              f"{extra['snr_bound_unchecked_rows']} row(s) split unevenly, so snr_lower <= snr <= snr_upper "
              f"is not checked there, and {extra['snr_bound_defect_rows']} of them break it")
    rows = dict(result["metrics"])
    rows.update({k: {"value": v, "unit": unit_of(k)} for k, v in info["extra"].items()})
    for name, m in rows.items():
        layer = name.rsplit(".", 1)[0]
        note = "  (absent)" if any(layer.startswith(a) for a in info["absent"]) else ""
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_region", "mc_dense", "fixed_n_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_library()
    except (LibraryMissing, ImportError) as err:
        print(f"perfbench: cannot import the library: {err}", file=sys.stderr)
        return 2
    import numpy

    if args.setup_probe:
        import harness

        work = harness.build(args.workload, args.seed)
        try:
            harness.warm_up(work)
        except Exception:  # counted as failed rows by the measuring run
            traceback.print_exc()
        print("ready", flush=True)
        return 0

    print("env " + json.dumps(environment_stamp(numpy.__version__)))
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
