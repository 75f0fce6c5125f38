"""Curve calculus: speeds, lengths, line and occupation measures."""

import math

import numpy as np
import pytest

from modcap.curves import (
    ParametricCurve,
    _edges,
    _line_integrals,
    _segment_table,
    constant_curve,
    constant_speed_reparam,
    curve_energy,
    curve_length,
    edge_multiplicity,
    j_map,
    m_map,
    metric_speed,
    occupation_at,
    stretch,
)
from modcap.errors import InvalidInstanceError
from modcap.instance import random_walk_curve
from modcap.space import MetricMeasureSpace, build_grid_space


def chain(n=5, ell=1.0):
    return MetricMeasureSpace(
        n, [(i, i + 1, ell) for i in range(n - 1)], np.ones(n) / n
    )


def test_curve_validation():
    with pytest.raises(InvalidInstanceError, match="strictly increasing"):
        ParametricCurve((0, 1, 2, 3), (0.0, 0.6, 0.6, 1.0))
    with pytest.raises(InvalidInstanceError, match="start at 0"):
        ParametricCurve((0, 1), (0.1, 1.0))
    with pytest.raises(InvalidInstanceError, match="3 nodes but 2 times"):
        ParametricCurve((0, 1, 2), (0.0, 1.0))
    with pytest.raises(InvalidInstanceError, match="negative node -1"):
        ParametricCurve((0, -1), (0.0, 1.0))
    c = constant_curve(4)
    assert c.is_constant() and c.nodes == (4, 4)


def test_curve_rejects_non_adjacent_step():
    space = chain(4)
    with pytest.raises(InvalidInstanceError, match="points 0 and 2 are not adjacent"):
        curve_length(space, ParametricCurve((0, 2), (0.0, 1.0)))


def test_speed_length_energy_by_hand():
    space = chain(4, ell=0.5)
    c = ParametricCurve((0, 1, 2), (0.0, 0.25, 1.0))
    speeds = metric_speed(space, c)
    assert speeds == pytest.approx([2.0, 2.0 / 3.0])
    assert curve_length(space, c) == 1.0
    # Energy with exponent 2: 4 * 0.25 + (2/3)^2 * 0.75.
    assert curve_energy(space, c, 2.0) == pytest.approx(1.0 + 1.0 / 3.0)
    assert curve_energy(space, c, 1.0) == curve_length(space, c)
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="energy exponent must be finite and >= 1"):
            curve_energy(space, c, q)


def test_plateaus_have_zero_speed_and_length():
    space = chain(3)
    c = ParametricCurve((0, 0, 1), (0.0, 0.5, 1.0))
    assert metric_speed(space, c)[0] == 0.0
    assert curve_length(space, c) == 1.0
    rep = constant_speed_reparam(space, c)
    assert rep.nodes == (0, 1)
    assert curve_length(space, rep) == 1.0


def test_constant_speed_reparam_uniformizes():
    space = chain(6, ell=0.25)
    rng = np.random.default_rng(11)
    for _ in range(30):
        c = random_walk_curve(space, rng, int(rng.integers(1, 10)))
        rep = constant_speed_reparam(space, c)
        speeds = metric_speed(space, rep)
        ell = curve_length(space, c)
        assert np.allclose(speeds, ell, rtol=1e-12, atol=1e-12)
        again = constant_speed_reparam(space, rep)  # idempotent
        assert again.nodes == rep.nodes
        assert max(abs(s - t) for s, t in zip(again.times, rep.times)) < 1e-12
    with pytest.raises(ValueError, match="constant curve"):
        constant_speed_reparam(space, constant_curve(2))


def test_line_measure_counts_multiplicity():
    space = chain(4, ell=0.5)
    c = ParametricCurve((0, 1, 2, 1), (0.0, 0.3, 0.6, 1.0))
    assert edge_multiplicity(space, c) == {(0, 1): 1, (1, 2): 2}
    _, lo, hi, mass, _ = _edges(_segment_table(space, [c]))  # the line measure per edge
    assert dict(zip(zip(lo.tolist(), hi.tolist()), mass.tolist())) == {(0, 1): 0.5, (1, 2): 1.0}
    nodal = j_map(space, c)
    assert nodal.total == pytest.approx(curve_length(space, c), abs=1e-14)
    assert dict(nodal.items) == pytest.approx({0: 0.25, 1: 0.75, 2: 0.5})


def test_occupation_measure_is_a_probability():
    space = chain(5)
    rng = np.random.default_rng(23)
    for _ in range(30):
        c = random_walk_curve(space, rng, int(rng.integers(1, 8)))
        mm = m_map(space, c)
        assert mm.total == pytest.approx(1.0, abs=1e-12)
        vals = rng.uniform(size=5)
        trapezoid = sum(
            (t1 - t0) * (vals[u] + vals[v]) / 2
            for t0, t1, u, v in zip(c.times, c.times[1:], c.nodes, c.nodes[1:])
        )
        assert mm.integrate(vals) == pytest.approx(trapezoid, abs=1e-12)


def test_curve_integral_uses_trapezoid_values():
    space = chain(3, ell=2.0)
    c = ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0))
    vals = [1.0, 3.0, 5.0]
    (integral,) = _line_integrals(_segment_table(space, [c]), np.array(vals))
    assert integral == pytest.approx(2 * 2.0 + 2 * 4.0)
    assert integral == pytest.approx(j_map(space, c).integrate(vals))


def test_occupation_at_interpolates():
    space = chain(3)
    c = ParametricCurve((0, 1, 2), (0.0, 0.4, 1.0))
    assert occupation_at(space, c, 0.0) == [(0, 1.0)]
    assert occupation_at(space, c, 0.4) == [(1, 1.0)]
    weights = dict(occupation_at(space, c, 0.1))
    assert weights[0] == pytest.approx(0.75)
    assert weights[1] == pytest.approx(0.25)
    assert occupation_at(space, c, 1.0) == [(2, 1.0)]
    with pytest.raises(ValueError):
        occupation_at(space, c, 1.5)
    # A plateau keeps its node with weight exactly 1 at every time.
    flat = ParametricCurve((0, 1, 1, 2), (0.0, 0.4, 0.7, 1.0))
    for t in (0.4, 0.55, 0.7 - 1e-12):
        assert occupation_at(space, flat, t) == [(1, 1.0)]
    assert occupation_at(space, flat, 0.85) == [(1, 0.5), (2, 0.5)]


def test_line_measure_invariant_occupation_not():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(5)
    moved = 0
    for _ in range(60):
        c = random_walk_curve(space, rng, int(rng.integers(2, 9)))
        rep = constant_speed_reparam(space, c)
        assert j_map(space, rep).items == j_map(space, c).items
        delta = np.abs(
            m_map(space, c).to_array(16) - m_map(space, rep).to_array(16)
        ).max()
        if delta > 1e-6:
            moved += 1
    assert moved > 0


def test_energy_jensen_inequality():
    space = build_grid_space(4, 4)
    rng = np.random.default_rng(41)
    for _ in range(60):
        c = random_walk_curve(space, rng, int(rng.integers(1, 9)))
        ell = curve_length(space, c)
        assert curve_energy(space, c, 2.0) >= ell * ell - 1e-12
        rep = constant_speed_reparam(space, c)
        assert curve_energy(space, rep, 2.0) == pytest.approx(ell * ell, abs=1e-12)


def test_stretch_window_keeps_interior_breakpoints():
    space = chain(5, ell=0.25)
    c = ParametricCurve((0, 1, 2, 3, 4), (0.0, 0.25, 0.5, 0.75, 1.0))
    piece = stretch(space, c, 0.25, 0.75)
    assert piece.nodes == (1, 2, 3)
    assert piece.times == (0.0, 0.5, 1.0)
    # A window boundary inside a segment snaps to the nearest node.
    piece = stretch(space, c, 0.3, 0.8)
    assert piece.nodes[0] == 1 and piece.nodes[-1] == 3
    with pytest.raises(ValueError):
        stretch(space, c, 0.6, 0.4)


def test_stretch_of_whole_window_is_identity():
    space = chain(4)
    c = ParametricCurve((0, 1, 2), (0.0, 0.7, 1.0))
    assert stretch(space, c, 0.0, 1.0) == c


def test_curves_equivalent_modulo_reparameterization():
    space = chain(4, ell=0.5)
    c1 = ParametricCurve((0, 1, 2), (0.0, 0.2, 1.0))
    c2 = ParametricCurve((0, 1, 2), (0.0, 0.8, 1.0))
    c3 = ParametricCurve((2, 1, 0), (0.0, 0.5, 1.0))
    # Reparameterizations share one constant-speed representative; a
    # reversal does not.
    r1, r2, r3 = (constant_speed_reparam(space, c) for c in (c1, c2, c3))
    assert r1 == r2 == ParametricCurve((0, 1, 2), (0.0, 0.5, 1.0))
    assert r3.nodes != r1.nodes
