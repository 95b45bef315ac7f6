"""Workloads, the correctness gate and the timed rounds.

A *draw* is one user position evaluated at one sweep value.  Every workload
is a list of slices; a slice is one ``run_sweep`` call for one sweep point
followed by ``render_sweep_csv``.  A run makes an untimed reference pass over
the whole workload and checks it, then times round after round of slices
and checks every slice's rows against the reference rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pass_trihybrid import UserPosition, WaveguideLayout, config, experiments, placement

import speed
from tracing import DRAW_PATH, LOAD_CONFIG, REFINE_ALL, RUN_SWEEP, Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# name -> (config file, number of fixed user positions drawn from the seed)
WORKLOADS = {
    "mc_region": ("mc_region.cfg", 0),
    "mc_dense": ("mc_dense.cfg", 0),
    "fixed_n_sweep": ("fixed_n_sweep.cfg", 12),
}
# Sizes for the self-tests: draws per Monte Carlo point, fixed positions.
TINY_DRAWS = 2
TINY_POSITIONS = 1


@dataclass
class Slice:
    cfg: config.ExperimentConfig
    draws: int
    expected: list[str] = field(default_factory=list)  # data rows of the reference pass


@dataclass
class Workload:
    name: str
    seed: int
    tiny: bool
    documents: list[config.ExperimentConfig]  # one whole sweep each
    groups: list[list[Slice]]  # slices timed between two calibration probes

    @property
    def slices(self) -> list[Slice]:
        return [s for group in self.groups for s in group]

    @property
    def draws(self) -> int:
        return sum(s.draws for s in self.slices)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Seeded configs for one workload; the library sees only these.

    Fixed users are drawn uniformly from the whole service region.
    """
    cfg_file, positions = WORKLOADS[name]
    base = config.load_config(str(HERE / "configs" / cfg_file)).replace(seed=seed)
    if tiny:
        base = base.replace(draws=TINY_DRAWS)
        positions = min(positions, TINY_POSITIONS)
    if base.user == "uniform":
        documents = [base]
    else:
        units = np.random.default_rng(seed).random((positions, 2)) - 0.5
        documents = [
            base.replace(user_x=float(ux * base.dx_m), user_y=float(uy * base.dy_m))
            for ux, uy in units
        ]
    per_point = base.draws if base.user == "uniform" else 1
    groups = [
        [Slice(doc.replace(sweep_values=(value,)), per_point) for value in doc.sweep_values]
        for doc in documents
    ]
    if base.user == "uniform":  # Monte Carlo slices are long enough to stand alone
        groups = [[s] for group in groups for s in group]
    return Workload(name, seed, tiny, documents, groups)


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def recorded_digests(work: Workload) -> list[str] | None:
    """Per-line digests recorded for this workload and seed, if any."""
    if work.tiny or not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text()).get(work.name)
    if entry is None or entry["seed"] != work.seed:
        return None
    return entry["lines"]


def reference_lines(work: Workload) -> list[str]:
    """Every CSV line of the whole workload, one document after another."""
    lines: list[str] = []
    for doc in work.documents:
        lines += experiments.render_sweep_csv(doc, experiments.run_sweep(doc)).splitlines()
    return lines


def even_split(doc: config.ExperimentConfig, value: float) -> bool:
    """Whether every waveguide places as many PAs left as right of the fixed
    user at this sweep value, which the closed-form SNR bounds assume."""
    params = doc.params_for_case(value)
    user = UserPosition(doc.user_x, doc.user_y)
    _, results = placement.refine_all(params, WaveguideLayout.from_params(params), user)
    return all(r.n_left == r.n_right for r in results)


def _bounds_hold(row: dict[str, str]) -> bool:
    return float(row["snr_lower"]) <= float(row["snr"]) <= float(row["snr_upper"])


def _row_ok(row: dict[str, str], bounds: bool) -> bool:
    """Invariants that hold at any seed; ``bounds`` where their precondition holds."""
    if not 0 <= int(row["infeasible"]) <= int(row["draws"]):
        return False
    return not bounds or _bounds_hold(row)


@dataclass
class Gate:
    """CSV rows attempted and failed, over the reference pass and every slice."""

    attempted: int = 0
    failed: int = 0
    infeasible: int = 0
    draws: int = 0
    uneven: int = 0  # fixed-user rows whose split breaks the bounds' precondition
    uneven_out_of_bounds: int = 0  # of those, rows outside [snr_lower, snr_upper]

    def count(self, rows: int, bad: int, what: str) -> None:
        self.attempted += rows
        self.failed += bad
        if bad:
            print(f"FAILED {bad} of {rows} row(s): {what}", file=sys.stderr)


def check_reference(work: Workload, gate: Gate) -> bool:
    """Untimed pass over the whole workload, rendered twice.

    Every line must repeat byte for byte and, where a digest is recorded for
    this seed, match it; every data row must meet :func:`_row_ok`, fixed-user
    rows with the SNR bounds where :func:`even_split` holds.  Fills each
    slice's expected rows.  Returns whether recorded digests were checked.
    """
    sizes = [len(doc.sweep_values) * len(doc.modes) + 2 for doc in work.documents]
    fixed = work.documents[0].user == "fixed"
    try:
        first, second = reference_lines(work), reference_lines(work)
        even = [[fixed and even_split(doc, v) for v in doc.sweep_values] for doc in work.documents]
    except Exception:
        traceback.print_exc()
        gate.count(sum(sizes), sum(sizes), f"{work.name}: reference pass raised")
        return False
    recorded = recorded_digests(work)
    if recorded is not None and len(recorded) != len(first):
        missing = abs(len(recorded) - len(first))
        gate.count(missing, missing, "line count differs from the record")
    columns = first[1].split(",")
    slices = iter(work.slices)
    start = 0
    for doc, size, doc_even in zip(work.documents, sizes, even):
        per_value = len(doc.modes)
        for i in range(start, start + size):
            ok = i < len(first) and i < len(second) and first[i] == second[i]
            if ok and recorded is not None:
                ok = i < len(recorded) and line_digest(first[i]) == recorded[i]
            if ok and i >= start + 2:
                try:
                    row = dict(zip(columns, first[i].split(","), strict=True))
                    bounds = doc_even[(i - start - 2) // per_value]
                    ok = _row_ok(row, bounds)
                    if fixed and not bounds:
                        gate.uneven += 1
                        gate.uneven_out_of_bounds += not _bounds_hold(row)
                    gate.draws += int(row["draws"])
                    gate.infeasible += int(row["infeasible"])
                except (ValueError, KeyError):
                    ok = False
            gate.count(1, 0 if ok else 1, f"line {i}: {first[i] if i < len(first) else '<missing>'}")
        data = first[start + 2 : start + size]
        for k in range(len(doc.sweep_values)):
            next(slices).expected = data[k * per_value : (k + 1) * per_value]
        start += size
    return recorded is not None


def run_slice(s: Slice, gate: Gate) -> float:
    """Time one slice through the public API; check its rows afterwards."""
    label = f"{s.cfg.sweep}={s.cfg.sweep_values[0]:g}"
    try:
        start = time.perf_counter()
        reports = experiments.run_sweep(s.cfg)
        csv = experiments.render_sweep_csv(s.cfg, reports)
        elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        gate.count(len(s.cfg.modes), len(s.cfg.modes), f"slice {label} raised")
        return math.nan
    rows = csv.splitlines()[2:]
    bad = sum(a != b for a, b in zip(rows, s.expected)) + abs(len(rows) - len(s.expected))
    gate.count(max(len(rows), len(s.expected)), bad, f"slice {label} differs from the reference")
    return elapsed


def warm_up(work: Workload) -> None:
    """One untimed call, so that lazy set-up in the library is done before timing."""
    first = work.slices[0].cfg
    experiments.render_sweep_csv(first, experiments.run_sweep(first))


@dataclass
class Rounds:
    """Per-round slice times in seconds, raw and divided by the calibration probe."""

    raw: list[list[float]] = field(default_factory=list)
    scaled: list[list[float]] = field(default_factory=list)

    def add(self, work: Workload, gate: Gate) -> None:
        raw, scaled = [], []
        before = speed.probe()
        for group in work.groups:
            times = [run_slice(s, gate) for s in group]
            after = speed.probe()
            ref = (before + after) / 2
            before = after
            raw += times
            scaled += [t / ref * speed.REFERENCE_S for t in times]
        self.raw.append(raw)
        self.scaled.append(scaled)

    def us_per_draw(self, work: Workload, scaled: bool = True) -> float:
        """Sum over slices of each slice's median time, per draw, in µs.
        Slices that raised in every round are left out; 0 if all did."""
        rounds = self.scaled if scaled else self.raw
        total = draws = 0
        for s, col in zip(work.slices, zip(*rounds)):
            times = [t for t in col if not math.isnan(t)]
            if times:
                total += statistics.median(times)
                draws += s.draws
        return total / draws * 1e6 if draws else 0.0

    def total_s(self) -> float:
        return sum(t for r in self.raw for t in r if not math.isnan(t))


def end_to_end(work: Workload, seconds: float, gate: Gate) -> Rounds:
    rounds = Rounds()
    deadline = time.perf_counter() + seconds
    while len(rounds.raw) < 2 or time.perf_counter() < deadline:
        rounds.add(work, gate)
    return rounds


def per_layer(
    work: Workload, seconds: float, gate: Gate, load: Tracer
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from rounds that alternate untraced and traced, and
    the layers whose names the library no longer has.

    A layer's self time per draw is its share of the traced time times the
    traced µs per draw at the reference speed.
    """
    tracer = Tracer(DRAW_PATH + (RUN_SWEEP,))
    plain, traced = Rounds(), Rounds()
    deadline = time.perf_counter() + seconds
    while len(traced.raw) < 2 or time.perf_counter() < deadline:
        if len(plain.raw) > len(traced.raw):
            with tracer:
                traced.add(work, gate)
        else:
            plain.add(work, gate)
    traced_us = traced.us_per_draw(work)
    traced_s = max(traced.total_s(), 1e-9)
    draws = work.draws * len(traced.raw)
    metrics: dict[str, float] = {}
    for target in DRAW_PATH + (RUN_SWEEP,):
        metrics[f"{target.layer}.self_us_per_draw"] = tracer.self_s[target.layer] / traced_s * traced_us
        if target is not RUN_SWEEP:
            metrics[f"{target.layer}.calls_per_draw"] = tracer.calls[target.layer] / draws
    loads = max(load.calls[LOAD_CONFIG.layer], 1)
    metrics["config.load_config.ms"] = load.self_s[LOAD_CONFIG.layer] / loads * 1e3
    refines = max(tracer.calls[REFINE_ALL], 1)
    metrics["placement.refine_all.infeasible_frac"] = tracer.raised[REFINE_ALL] / refines
    metrics["placement.redistributed_frac"] = tracer.redistributed / refines
    plain_us = plain.us_per_draw(work)
    metrics["trace_overhead_frac"] = traced_us / plain_us - 1.0 if plain_us else 0.0
    return metrics, sorted(tracer.absent | load.absent)
