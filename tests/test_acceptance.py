"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N PASS`` line (visible with -s) and
enforces the stated runtime budget where one applies.  All comparisons
are exact integer equalities.
"""

import math
import random
import time

from permax import (
    apply,
    build_table,
    canonical_form,
    classify_form,
    d_matrix,
    enumerate_normalized,
    equivalent_to_d,
    gap_value,
    laplace_identity,
    mper,
    p_matrix,
    per_d_diag,
    permanent_ryser,
    rank,
    verify_mper,
    verify_properties,
    verify_square,
)
from permax.props import _random_transforms

TABLE = build_table(12)


def test_criterion_1_table_exactness():
    t0 = time.monotonic()
    table = build_table(8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert table.value(n, k) == permanent_ryser(d_matrix(n, n, k)), (n, k)
    assert [table.value(4, k) for k in range(5)] == [24, 12, 8, 4, 8]
    assert table.value(6, 6) == 112
    assert table.value(5, 5) == 8
    assert table.value(3, 3) == -2
    assert table.value(2, 2) == 2
    assert table.value(1, 1) == -1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"\ncriterion 1 PASS: table matches direct permanents through order 8 ({elapsed:.2f}s)")


def test_criterion_2_order_four_classification():
    t0 = time.monotonic()
    report = verify_square(4)
    top = report.rows[-1]
    assert (top.rank, top.observed_max, top.extremal_orbits) == (4, 8, 1)
    assert top.equality_class == "D-plus-exception"

    # independent re-derivation of the nonsingular value set
    extremal = []
    values = set()
    for a in enumerate_normalized(4):
        if rank(a) < 4:
            continue
        p = abs(permanent_ryser(a))
        values.add(p)
        if p == 8:
            extremal.append(a)
    assert max(values) == 8
    assert all(v <= 4 for v in values - {8})
    assert len({canonical_form(a).words for a in extremal}) == 1
    assert all(equivalent_to_d(a, 4) is not None for a in extremal)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 2 PASS: order-4 nonsingular max 8 on the one diagonal orbit, rest <= 4 ({elapsed:.2f}s)")


def test_criterion_3_order_five_sweep():
    t0 = time.monotonic()
    report = verify_square(5)
    assert report.scanned == 2 ** 16
    assert [(s.rank, s.bound, s.observed_max) for s in report.rows] == [
        (1, 120, 120),
        (2, 72, 72),
        (3, 48, 48),
        (4, 32, 32),
        (5, 24, 24),
    ]
    assert all(s.extremal_orbits == 1 and s.equality_class == "D-only" for s in report.rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 3 PASS: order-5 bound holds on every rank stratum, equality only on D orbits ({elapsed:.2f}s)")


def test_criterion_4_order_six_sweep():
    t0 = time.monotonic()
    report = verify_square(6)
    assert report.scanned == 2 ** 25
    assert [(s.rank, s.bound, s.observed_max) for s in report.rows] == [
        (1, 720, 720),
        (2, 480, 480),
        (3, 336, 336),
        (4, 240, 240),
        (5, 176, 176),
        (6, 128, 128),
    ]
    assert all(s.extremal_orbits == 1 and s.equality_class == "D-only" for s in report.rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 4 PASS: order-6 sweep of 2^25 matrices, nonsingular bound 128 ({elapsed:.1f}s)")


def test_criterion_5_identity_suite():
    for n in range(5, 13):
        assert laplace_identity(n, TABLE) == TABLE.value(n, n - 1), n
        assert per_d_diag(n, TABLE) == TABLE.value(n, n), n
        row = [TABLE.value(n, k) for k in range(n + 1)]
        assert all(v > 0 for v in row), n
        assert all(a > b for a, b in zip(row, row[1:])), n
    print("criterion 5 PASS: expansion and diagonal identities, monotone positive rows, orders 5..12")


def test_criterion_6_gap_polynomials():
    assert gap_value(8, TABLE) == 576
    computed7 = gap_value(7, TABLE)
    for n in range(7, 13):
        assert gap_value(n, TABLE) > 0, n
    # the formula yields 16 at order 7; an external account quotes 17.
    # positivity is the load-bearing property and is what this asserts.
    assert computed7 == 16
    print(
        "criterion 6 PASS: gap(8) = 576 and gap > 0 for orders 7..12 "
        f"(computed gap(7) = {computed7}, quoted elsewhere as 17; positivity is the pass condition)"
    )


def test_criterion_7_mper_bounds():
    t0 = time.monotonic()
    shapes = {
        (2, 3): (2, 1),
        (2, 4): (6, 1),
        (2, 5): (12, 1),
        (2, 6): (20, 1),
        (2, 7): (30, 1),
        (2, 8): (42, 1),
        (3, 4): (8, 2),
        (3, 5): (24, 1),
        (3, 6): (56, 1),
        (3, 7): (110, 1),
        (4, 5): (32, 1),
        (4, 6): (120, 1),
    }
    assert mper(d_matrix(5, 4, 3)) == 32
    for (k, n), (bound, orbits) in shapes.items():
        report = verify_mper(k, n)
        row = report.rows[0]
        assert (row.bound, row.observed_max) == (bound, bound), (k, n)
        assert row.extremal_orbits == orbits, (k, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 7 PASS: selection-sum bound over 12 shapes, two equality orbits at (3,4) ({elapsed:.1f}s)")


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    report = verify_properties(seed=1, samples=100_000)
    counts = dict(report.checks)
    assert counts["order4_divisibility"] == 512  # exhaustive normalized sweep
    assert counts["ryser_vs_naive"] >= 100_000
    assert counts["transform_invariance"] >= 10_000
    assert counts["total_bound"] >= sum(2 ** ((n - 1) ** 2) for n in range(2, 6))
    assert counts["laplace_expansion"] >= 1_000
    assert counts["rank_vector_laws"] > 0
    elapsed = time.monotonic() - t0
    print(f"criterion 8 PASS: all six invariant families, zero failures ({elapsed:.1f}s)")


def test_criterion_9_template_classification():
    assert permanent_ryser(p_matrix(1)) == 16
    assert permanent_ryser(p_matrix(2)) == 16
    rng = random.Random(20250819)
    targets = [
        ("P1", p_matrix(1)),
        ("P2", p_matrix(2)),
        ("DnDiag", d_matrix(6, 6, 6)),
        ("DnMinus1", d_matrix(6, 6, 5)),
    ]
    for want, template in targets:
        for _ in range(10):
            a = apply(template, _random_transforms(rng, 6))
            form = classify_form(a)
            assert form.tag == want
            assert apply(a, form.seq) == template
    print("criterion 9 PASS: both order-6 templates have permanent 16 and classify with exact replay")
