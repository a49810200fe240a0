"""permax benchmark: time to a checked verdict on four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep6,mper12,props,orbit6,all}
                         [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` next to this directory; the run
stops with exit code 2 when it is missing or when Python runs with
``-O`` (the program's own exhaustive-count checks are asserts, and this
benchmark must not depend on them).

``--trace 0`` times ``import permax.cli`` in fresh interpreters before
and after the passes (``setup_s``, their median).  It runs whole passes
of the workload with one worker, at least two and as many as fit in
``--seconds``, and reports their median as ``wall_s``.  Both times are
scaled to a reference CPU speed measured inside the timed region (see
speed.py), because a shared machine's speed drifts; the raw wall times
are printed beside them.  ``--trace 1`` runs one
untraced and one span-traced pass, both with one worker, and reports the
per-layer metrics and the tracing overhead, the pass times scaled as
above; on ``sweep6`` it also runs one untraced pass with ``nproc``
workers.  Every pass output is checked
(see workloads.py); the run exits 1 when any check failed.
``--workload all`` runs each workload untraced and then traced, each
run in its own interpreter, and prints every metric together.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit and sample count, and the run's
provenance (nproc, Python version, git sha, optimize flag, load average
at start and end).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
NAMES = ("sweep6", "mper12", "props", "orbit6")
# fresh-interpreter imports timed before and again after the passes, so
# the median spans the run rather than one moment of a shared machine
SETUP_REPS = 10
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for stem in spans.stems():
        out[f"{stem}.calls"] = "count"
        if stem == "d_family.build_table":
            continue
        out[f"{stem}.self_s"] = "s"
        if not stem.startswith("sign_matrix."):
            out[f"{stem}.us_per_call"] = "us"
    out["verifier.sweep.leaves"] = "count"
    out["verifier.sweep.us_per_leaf"] = "us"
    out["verifier.sweep.wall_par_s"] = "s"
    out["verifier.sweep.par_speedup"] = "x"
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = "s"
    out["trace.untraced_s"] = "s"
    out["trace.traced_s"] = "s"
    out["trace.overhead_frac"] = "ratio"
    out["trace.absent_bindings"] = "count"
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(reps: int = SETUP_REPS) -> tuple[list[float], list[float]]:
    """Seconds for ``import permax.cli`` in ``reps`` fresh interpreters,
    after one unmeasured import that leaves the bytecode caches written:
    raw, and scaled by the reference kernel run in the same interpreter
    just before and after the import."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[2]); import speed; "
        "k = speed.kernel_times(speed.BURST); sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import permax.cli; s = time.perf_counter() - t; "
        "k += speed.kernel_times(speed.BURST); print(s, speed.factor(k))"
    )
    cmd = [sys.executable, "-I", "-c", code, str(SRC), str(BENCH)]
    raw, scaled = [], []
    for i in range(reps + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:
            s, f = map(float, out.stdout.split())
            raw.append(s)
            scaled.append(s * f)
    return raw, scaled


def _line(workload: str, name: str, value, unit: str, note: str) -> str:
    return f"{workload} {name} = {value} {unit} ({note})"


def run_untraced(wl, seed: int, seconds: float, checks) -> tuple[dict, list[str]]:
    setup_raw, setup = measure_setup()
    walls, scaled, factors, item_times = [], [], [], []
    t0 = speed.clock()
    # passes go on while one more, at the mean cost so far, fits in --seconds
    while len(walls) < MIN_PASSES or (speed.clock() - t0) * (len(walls) + 1) / len(walls) <= seconds:
        inputs = wl.inputs(seed, len(walls))
        with speed.Sampler() as sampler:
            done = wl.run(inputs)
        wl.check(inputs, done, checks)
        f = sampler.factor()
        walls.append(done.seconds)
        scaled.append(sampler.scaled(done.seconds))
        factors.append(f)
        item_times.extend(t * f for t in done.item_seconds)
    more_raw, more = measure_setup()
    setup_raw += more_raw
    setup += more
    wall = statistics.median(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": done.items / wall,
        "peak_rss_mb": rss_mb,
    }
    ref = "at reference speed"
    lines = [
        _line(wl.name, "setup_s", metrics["setup_s"], "s",
              f"median, n={len(setup)}, {ref}; raw median {statistics.median(setup_raw)} s"),
        _line(wl.name, "wall_s", wall, "s",
              f"median of n={len(walls)} passes, {ref}; raw median {statistics.median(walls)} s, "
              f"passes {[round(x, 3) for x in scaled]}, speed factors {[round(x, 3) for x in factors]}"),
        _line(wl.name, "items_per_s", metrics["items_per_s"], "1/s",
              f"{done.items} {wl.unit} per pass, n={len(walls)}, {ref}"),
        _line(wl.name, "peak_rss_mb", rss_mb, "MB", "ru_maxrss, n=1"),
    ]
    if item_times:
        q = statistics.quantiles(item_times, n=100, method="inclusive")
        note = f"n={len(item_times)} {wl.unit}, {ref}"
        lines.append(_line(wl.name, "item_p50_ms", 1000 * statistics.median(item_times), "ms", note))
        lines.append(_line(wl.name, "item_p99_ms", 1000 * q[98], "ms", note))
    return metrics, lines


def run_traced(wl, seed: int, checks) -> tuple[dict, list[str]]:
    inputs = wl.inputs(seed, 0)
    with speed.Sampler() as sampler:
        plain = wl.run(inputs)
    wl.check(inputs, plain, checks)
    plain_s = sampler.scaled(plain.seconds)
    par = None
    if wl.par:
        with speed.Sampler() as sampler:
            par_wall = wl.par(inputs, plain, nproc(), checks)
        par = sampler.scaled(par_wall)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with speed.Sampler() as sampler:
            traced = wl.run(inputs)
    finally:
        tracer.uninstall()
    wl.check(inputs, traced, checks)
    traced_s = sampler.scaled(traced.seconds)
    left = spans.patched_bindings()
    checks.expect(not left, f"trace wrappers left installed: {left}")

    found = tracer.metrics()
    metrics = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for stem in spans.stems():
        calls, self_s, incl = found.get(stem, (0, 0.0, 0.0))
        layer_self[stem.split(".")[0]] += self_s
        metrics[f"{stem}.calls"] = calls
        metrics[f"{stem}.self_s"] = self_s
        metrics[f"{stem}.us_per_call"] = 1e6 * incl / calls if calls else 0.0
    metrics["verifier.sweep.leaves"] = metrics["verifier.sweep.us_per_leaf"] = 0
    metrics["verifier.sweep.wall_par_s"] = metrics["verifier.sweep.par_speedup"] = 0
    if wl.name == "sweep6":
        # row multisets of the five free rows: C(2^5 + 4, 5)
        leaves = math.comb((1 << 5) + 4, 5)
        metrics["verifier.sweep.leaves"] = leaves
        metrics["verifier.sweep.us_per_leaf"] = 1e6 * plain_s / leaves
    if par is not None:
        metrics["verifier.sweep.wall_par_s"] = par
        metrics["verifier.sweep.par_speedup"] = plain_s / par
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_s"] = s
    metrics["trace.untraced_s"] = plain_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics["trace.absent_bindings"] = len(tracer.absent)
    units = per_layer_units()
    metrics = {k: metrics[k] for k in units}
    lines = [_line(wl.name, k, v, units[k], "traced pass, n=1") for k, v in metrics.items()]
    lines += [f"{wl.name} absent binding: {b}" for b in tracer.absent]
    return metrics, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    load_start = os.getloadavg()
    checks = workloads.Checks()
    wl = workloads.WORKLOADS[name]
    if trace:
        metrics, lines = run_traced(wl, seed, checks)
        units = per_layer_units()
    else:
        metrics, lines = run_untraced(wl, seed, seconds, checks)
        units = END_TO_END
        left = spans.patched_bindings()
        checks.expect(not left, f"untraced run found trace wrappers: {left}")
    failed = len(checks.failures)
    lines.append(
        _line(name, "failed_frac", failed / checks.attempted, "ratio", f"{failed} of {checks.attempted} checks")
    )
    for f in checks.failures[:20]:
        lines.append(f"{name} FAILED: {f}")
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "optimize": sys.flags.optimize,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("\n".join(lines))
    print("provenance " + json.dumps(provenance))
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each run in a fresh
    interpreter; prints every metric together."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name, trace in itertools.product(NAMES, ("0", "1")):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(out.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {out.returncode})", file=sys.stderr)
            return out.returncode or 1
        status = status or out.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O; checks must not depend on asserts", file=sys.stderr)
        return 2
    if not (SRC / "permax" / "__init__.py").is_file():
        print(f"error: no permax package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import permax

    if Path(permax.__file__).resolve().parent != SRC / "permax":
        print(f"error: imported permax from {permax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
