"""ttexplore benchmark: end-to-end figures, or per-layer figures from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload explore_batch --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in ``workloads.py``. The
program is used straight from ``src/``; nothing is installed. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` over
``attempted`` is the error rate.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced rounds, reports the per-layer metrics from the
traced ones and the tracing overhead from each neighbouring pair; it writes the
first traced round's spans to ``.bench_out/``. On explore_batch it then traces
one round of remote episodes against the loopback stub for the remote-path
metrics.

Times are speed-corrected by the reference in ``speed.py``, timed right
before and right after every timed round and set-up process, and inside
long_horizon's seconds-long episodes. The human-readable lines also give the
unscaled figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_s, scale
from stats import beyond, percentile
from tracing import PER_LAYER, Tracer, per_layer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("explore_batch", "long_horizon", "forge_data")
SETUP_REPEATS = 15

# A fresh process pays this to get going: import the package and its CLI
# (which pulls in config), then load the built-in worlds.
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import ttexplore, ttexplore.cli
from ttexplore.config import resolve_world_path
from ttexplore.world import load_world
for name in ("minihouse1", "minihouse2", "keymaze1"):
    load_world(resolve_world_path(name))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "ms_per_step": "ms",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def measure_setup() -> tuple[list[float], list[float]]:
    """Speed-corrected and unscaled wall seconds of fresh set-up processes. An
    unmeasured first process writes the bytecode cache the measured ones
    read, as a user's would."""
    code = SETUP_CODE.format(src=str(SRC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        before = reference_s()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        seconds = time.perf_counter() - t0
        if i:
            raw.append(seconds)
            scaled.append(seconds * scale([before, reference_s()]))
    return scaled, raw


class Tally:
    """Operations attempted and failed, over every round and final check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def timed_round(workload, tally: Tally):
    """One checked round, with its wall time and its speed correction; the
    reference timed inside the round is not part of its time."""
    gc.collect()
    before = reference_s()
    t0 = time.perf_counter()
    rnd = workload.round()
    rnd.seconds = time.perf_counter() - t0 - sum(rnd.references)
    rnd.scale = scale([before, *rnd.references, reference_s()])
    tally.add(workload.check(rnd))
    rnd.payload = None
    return rnd


def run_rounds(workload, seconds: float, tally: Tally, min_rounds: int) -> list:
    """Run whole rounds until ``seconds`` of timed work are done."""
    rounds = []
    spent = 0.0
    while spent < seconds or len(rounds) < min_rounds:
        rounds.append(timed_round(workload, tally))
        spent += rounds[-1].seconds
    return rounds


def _figures(rounds: list, setup: list[float], tail: int, scaled: bool) -> dict:
    def k(r) -> float:
        return r.scale if scaled else 1.0

    unit_ms = [s * k(r) * 1000.0 for r in rounds for s in r.unit_s]
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": statistics.median(r.units / (r.seconds * k(r)) for r in rounds),
        "ms_per_step": statistics.median(r.seconds * k(r) * 1000.0 / r.steps
                                         for r in rounds),
        "latency_ms_p50": percentile(unit_ms, 50),
        "latency_ms_p90": percentile(unit_ms, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(rounds: list, setup: tuple[list[float], list[float]]
               ) -> tuple[dict, dict, list[str]]:
    n = sum(len(r.unit_s) for r in rounds)
    # a tail figure needs ten samples beyond it; with fewer (long_horizon runs a
    # handful of episodes) no percentile above the median qualifies
    tail = 90 if beyond(n, 90) >= 10 else 50
    values = _figures(rounds, setup[0], tail, scaled=True)
    raw = _figures(rounds, setup[1], tail, scaled=False)
    notes = {
        "setup_s": f"median of {len(setup[0])} fresh processes",
        "throughput_per_s": f"median of {len(rounds)} rounds, "
                            f"{sum(r.units for r in rounds)} units",
        "ms_per_step": f"median of {len(rounds)} rounds, "
                       f"{sum(r.steps for r in rounds)} steps",
        "latency_ms_p50": f"n={n}",
        "latency_ms_p90": (f"n={n}, {beyond(n, 90)} beyond" if tail == 90 else
                           f"n={n}: too few for a tail, reports p50"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    scales = sorted(r.scale for r in rounds)
    lines = [f"{name} = {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]}; "
             f"unscaled {raw[name]:.6g})"
             for name, value in values.items()]
    lines.append(f"speed correction: median {statistics.median(scales):.3f}, "
                 f"range {scales[0]:.3f}-{scales[-1]:.3f}")
    return values, END_TO_END_UNITS, lines


def traced(workload, seconds: float, tally: Tally,
           seed: int) -> tuple[dict, dict, list[str]]:
    import ttexplore.world
    from workloads import WORLDS

    tracer = Tracer()
    tracer.install()
    for _ in range(3):
        for name in WORLDS:
            ttexplore.world.load_builtin_world(name)
    tracer.uninstall()
    load_ms = [(s[2] - s[1]) * 1000.0 for s in tracer.spans if s[0] == "world.load_world"]
    tracer.clear()
    # untraced and traced rounds alternate, so a drift in the machine's speed
    # reaches both rounds of a pair alike
    plain, rounds = [], []
    while sum(r.seconds for r in plain + rounds) < seconds or not rounds:
        plain.append(timed_round(workload, tally))
        tracer.install()
        try:
            rounds.append(timed_round(workload, tally))
        finally:
            tracer.uninstall()
        rounds[-1].spans = len(tracer.spans)
    overhead = statistics.median(t.seconds * t.scale / (p.seconds * p.scale)
                                 for p, t in zip(plain, rounds)) - 1.0
    groups = sum(r.units for r in rounds) if workload.name == "forge_data" else 0
    values, missing = per_layer(tracer, len(rounds), groups, load_ms, [], overhead)
    # the first round's spans alone are written, which bounds the file's size
    spans_path = OUT / f"spans-{workload.name}-s{seed}.jsonl"
    tracer.write(spans_path, rounds[0].spans)
    summary = (f"traced rounds: {len(rounds)}, each paired with an untraced one "
               f"for the overhead; spans: {len(tracer.spans)}, of which round 1's "
               f"{rounds[0].spans} were written to {spans_path.relative_to(ROOT)}")
    if workload.name == "explore_batch":
        values.update(remote_probe(tracer, tally, seed, workload.workdir))
    lines = [f"{name} = {value:.6g} {PER_LAYER[name][0]}" for name, value in values.items()]
    lines.append(summary)
    if missing:
        lines.append("missing per-layer metrics (traced name not found: "
                     + ", ".join(sorted(set(tracer.missing.values()))) + "): "
                     + ", ".join(missing))
    return values, {name: unit for name, (unit, _) in PER_LAYER.items()}, lines


def remote_probe(tracer: Tracer, tally: Tally, seed: int, workdir: Path) -> dict:
    """The remote-path metrics, from one traced round of ttexplore episodes
    whose actor and thinker are remote, served by the loopback stub."""
    from workloads import RemoteProbe

    probe = RemoteProbe(seed, workdir)
    tracer.clear()
    tracer.install()
    try:
        rnd = timed_round(probe, tally)
    finally:
        tracer.uninstall()
        probe.close()
    values, _ = per_layer(tracer, 1, 0, [], [rnd.stub_records], 0.0)
    return {name: value for name, value in values.items()
            if name.startswith("policies.remote.")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ttexplore" / "__init__.py").is_file():
        print(f"error: no ttexplore package under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    setup = ([], []) if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import ttexplore
    if Path(ttexplore.__file__).resolve().parent != SRC / "ttexplore":
        print(f"error: imported ttexplore from {ttexplore.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.warmup()
        if args.trace:
            metrics, units, lines = traced(workload, args.seconds, tally, args.seed)
        else:
            rounds = run_rounds(workload, args.seconds, tally, min_rounds=2)
            metrics, units, lines = end_to_end(rounds, setup)
        tally.add(workload.finish())
    finally:
        workload.close()
        shutil.rmtree(workdir)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    for line in lines:
        print("  " + line)
    print(f"  error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
