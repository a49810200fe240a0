"""Tests of the benchmark itself: traced counts against independently
computed ones, failure counting, and the printed metric set.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import permax  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from permax import d_matrix, p_matrix, verifier  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


def traced(name, *args):
    """Per-stem metrics of one call of ``permax.verifier.<name>``."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        getattr(verifier, name)(*args)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def calls(found, stem):
    return found.get(stem, (0, 0.0, 0.0))[0]


def test_sweep6_leaf_rank_calls_match_row_multisets():
    found = traced("verify_square", 6, 1)
    assert calls(found, "exact_rank.rank_rows") == math.comb(36, 5) == 376_992
    assert calls(found, "verifier.verify_square") == 1
    assert not any(calls(found, s) for s in spans.stems() if s.startswith("permanent."))


def test_mper_ryser_calls_match_full_rank_representatives():
    k, n = 3, 5
    reps = list(itertools.combinations_with_replacement(range(1 << (n - 1)), k - 1))
    full = sum(
        workloads.own_rank((0,) + tuple(x << 1 for x in rows), n) == k for rows in reps
    )
    found = traced("verify_mper", k, n)
    assert calls(found, "exact_rank.rank_rows") == len(reps) == 136
    # one mper call per full-rank representative plus one for the bound
    assert calls(found, "permanent.mper") == full + 1
    assert calls(found, f"permanent.ryser.n{k}") == (full + 1) * math.comb(n, k)
    assert calls(found, "sign_matrix.submatrix_select") == (full + 1) * math.comb(n, k)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.install()
    try:
        verifier.verify_mper(3, 5)
    finally:
        tracer.uninstall()
    found = tracer.metrics()
    top = tracer.fid.index(tracer.ids["verifier.verify_mper"])
    duration = [e - s for s, e in zip(tracer.start, tracer.end)]
    children = sum(d for d, p in zip(duration, tracer.parent) if p == top)
    assert 0 < children < duration[top]
    assert found["verifier.verify_mper"][1] == pytest.approx(duration[top] - children, abs=1e-9)
    assert sum(v[1] for v in found.values()) == pytest.approx(duration[top], abs=1e-9)


def test_tracer_restores_bindings_and_reports_absent_ones():
    original = permax.verifier._rank_rows
    tracer = spans.Tracer(spans.TRACED + (("exact_rank", "_gone", "exact_rank.gone", False),))
    tracer.install()
    try:
        patched = spans.patched_bindings()
        assert "permax.verifier._rank_rows" in patched
        assert "permax.permanent.permanent_ryser" in patched
        assert "permax.reduction.rank" in patched
    finally:
        tracer.uninstall()
    assert tracer.absent == ["permax.exact_rank._gone"]
    assert spans.patched_bindings() == []
    assert permax.verifier._rank_rows is original


def test_wrong_expected_value_counts_as_failure():
    shapes = ((2, 3), (3, 4))
    done = workloads.mper12_run(shapes)
    checks = workloads.Checks()
    workloads.mper12_check(shapes, done, checks)
    assert checks.failures == []
    wrong = dict(workloads.MPER_TABLE)
    wrong[(3, 4)] = (8, 1)
    checks = workloads.Checks()
    workloads.mper12_check(shapes, done, checks, table=wrong)
    assert checks.attempted == 4 and len(checks.failures) == 1


def test_program_exception_counts_as_failure(monkeypatch):
    def broken(k, n):
        raise RuntimeError("boom")

    monkeypatch.setattr(permax.verifier, "verify_mper", broken)
    done = workloads.mper12_run(((2, 3),))
    checks = workloads.Checks()
    workloads.mper12_check(((2, 3),), done, checks)
    assert checks.attempted == 1 and "boom" in checks.failures[0]


def test_wrong_table_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.MPER_TABLE, (4, 6), (121, 1))
    assert run.main(["--workload", "mper12", "--seconds", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    # one failed row check in each pass
    assert result["correct"] is False and result["failed"] == run.MIN_PASSES
    assert any(ln.startswith("mper12 FAILED: mper (4,6) rows") for ln in lines)


def test_orbit6_checks_catch_a_wrong_witness():
    inputs = workloads.orbit6_inputs(5, 0)
    done = workloads.orbit6_run(inputs)
    checks = workloads.Checks()
    workloads.orbit6_check(inputs, done, checks)
    assert checks.failures == [] and checks.attempted >= 2 * len(inputs[1])
    i = next(i for i, it in enumerate(inputs[1]) if it.kind == "D3")
    canon, witness, form = done.outputs[i]
    done.outputs[i] = (canon, witness + (("negR", 1),), form)
    checks = workloads.Checks()
    workloads.orbit6_check(inputs, done, checks)
    assert len(checks.failures) == 1


def test_orbit6_inputs_follow_the_seed():
    a = workloads.orbit6_inputs(3, 1)[1]
    b = workloads.orbit6_inputs(3, 1)[1]
    c = workloads.orbit6_inputs(4, 1)[1]
    assert [x.matrix for x in a] == [x.matrix for x in b] != [x.matrix for x in c]
    kinds = [x.kind for x in a]
    assert kinds.count("uniform") == len(kinds) // 2
    assert all(kinds.count(name) == workloads.ORBIT6_PER_TEMPLATE for name in workloads.TEMPLATES)


def test_templates_and_helpers_agree_with_permax():
    words = workloads.TEMPLATES
    assert words["P1"] == p_matrix(1).words and words["P2"] == p_matrix(2).words
    for r in range(7):
        assert words[f"D{r}"] == d_matrix(6, 6, r).words
    for name, w in words.items():
        a = permax.SignMatrix(6, 6, w)
        assert workloads.own_rank(w, 6) == permax.rank(a)
        assert workloads.own_per(w, 6) == permax.permanent_ryser(a)


def test_props_counts_at_a_small_volume():
    full = 0
    for k, n in ((2, 3), (2, 4), (3, 4)):
        for i in range(1 << (k * n)):
            rows = tuple((i >> (r * n)) & ((1 << n) - 1) for r in range(k))
            full += workloads.own_rank(rows, n) == k
    assert full == workloads.PROPS_EXHAUSTIVE_WIDE
    done = workloads.props_run((2, 400))
    checks = workloads.Checks()
    workloads.props_check((2, 400), done, checks)
    assert checks.failures == []


def test_speed_factor_is_mean_inverse_slowdown():
    ref = speed.REF_KERNEL_S
    assert speed.factor([ref, ref]) == 1.0
    # half the wall time at full speed, half at half speed: 3/4 of the work
    assert speed.factor([ref, 2 * ref]) == 0.75


def test_sampler_samples_the_pass_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(period=0.01) as sampler:
        t = speed.clock()
        while speed.clock() - t < 0.2:
            sum(range(1000))
        wall = speed.clock() - t
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0 < sampler.own < wall
    assert sampler.scaled(wall) == (wall - sampler.own) * speed.factor(sampler.samples)


def test_end_to_end_metrics_printed_with_units():
    out = bench("--workload", "orbit6", "--seconds", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in [*want, "failed_frac", "item_p50_ms", "item_p99_ms"]:
        assert any(ln.startswith(f"orbit6 {name} = ") for ln in lines), name
    assert any(ln.startswith("provenance ") for ln in lines)


def test_parallel_metrics_printed_with_units(monkeypatch):
    monkeypatch.setattr(speed.Sampler, "factor", lambda self: 1.0)
    fake = workloads.Workload(
        "fake", "matrices", lambda seed, index: None,
        lambda inputs: workloads.Pass(0.5, 10, [], None),
        lambda inputs, done, checks: checks.expect(True, ""),
        lambda inputs, done, workers, checks: 0.25,
    )
    metrics, lines = run.run_traced(fake, 0, workloads.Checks())
    assert metrics["verifier.sweep.par_speedup"] == 2.0
    assert "fake verifier.sweep.wall_par_s = 0.25 s" in "\n".join(lines)
    assert "fake verifier.sweep.par_speedup = 2.0 x" in "\n".join(lines)


def test_per_layer_metrics_printed_with_units():
    out = bench("--workload", "mper12", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == run.per_layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["verifier.verify_mper.calls"] == 12
    assert m["trace.absent_bindings"] == 0
    assert m["permanent.naive.n5.calls"] == 0  # mper12 bypasses the oracle


def test_refuses_under_optimize():
    out = bench("--workload", "mper12", "--seconds", "0", flags=("-O",))
    assert out.returncode == 2 and out.stdout == ""


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep6", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert out.returncode != 0 and out.stdout == ""
