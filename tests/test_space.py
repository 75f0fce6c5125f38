"""Space and measure construction, validation, and grid helpers."""

import math

import numpy as np
import pytest

from modcap.errors import InvalidInstanceError
from modcap.space import (
    DiscreteMeasure,
    MetricMeasureSpace,
    build_grid_space,
    grid_node,
    trapezoid_grid_weights,
)


def test_space_accepts_simple_triangle():
    space = MetricMeasureSpace(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)], [1, 2, 3])
    assert space.n_points == 3
    assert space.edge_length(2, 1) == 2.0
    assert space.has_edge(0, 2) and not space.has_edge(1, 1)
    assert space.neighbors(1) == ((0, 1.0), (2, 2.0))
    assert math.fsum(space.measure) == 6.0


def test_space_rejects_negative_mass_naming_point():
    with pytest.raises(InvalidInstanceError, match="point 2"):
        MetricMeasureSpace(3, [(0, 1, 1.0)], [1.0, 1.0, -0.5])


def test_space_rejects_bad_edges():
    with pytest.raises(InvalidInstanceError, match="self-loop"):
        MetricMeasureSpace(2, [(1, 1, 1.0)], [1.0, 1.0])
    with pytest.raises(InvalidInstanceError, match="unknown point"):
        MetricMeasureSpace(2, [(0, 5, 1.0)], [1.0, 1.0])
    with pytest.raises(InvalidInstanceError, match="duplicate edge"):
        MetricMeasureSpace(2, [(0, 1, 1.0), (1, 0, 2.0)], [1.0, 1.0])
    with pytest.raises(InvalidInstanceError, match="non-positive length"):
        MetricMeasureSpace(2, [(0, 1, 0.0)], [1.0, 1.0])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MetricMeasureSpace(0, [], []), "at least one point"),
        (lambda: MetricMeasureSpace(2, [], [1.0]), r"length \(1,\), expected \(2,\)"),
        (lambda: MetricMeasureSpace(2, [], [1.0, math.nan]), "non-finite"),
        (
            lambda: MetricMeasureSpace(2, [], [1.0, 1.0], coords=[(0.0, 0.0)]),
            r"one \(x, y\) pair per point",
        ),
        (lambda: build_grid_space(2, 2, [1.0, 1.0]), r"shape \(2,\), expected \(4,\)"),
        (lambda: DiscreteMeasure(((5, 1.0),)).to_array(3), "unknown point 5"),
    ],
    ids=["no-points", "measure-length", "nan-mass", "coords-shape", "grid-weights",
         "to-array"],
)
def test_malformed_spaces_and_measures_are_rejected(make, message):
    with pytest.raises(InvalidInstanceError, match=message):
        make()


def test_measure_drops_zero_weights_and_sorts():
    mu = DiscreteMeasure(((4, 0.5), (1, 0.0), (2, 0.25)))
    assert mu.items == ((2, 0.25), (4, 0.5))
    assert mu.total == 0.75
    assert DiscreteMeasure(((0, 0.0),)).items == ()
    assert DiscreteMeasure(((0, 0.0),)).total == 0.0


def test_measure_rejects_negative_and_duplicate_points():
    with pytest.raises(InvalidInstanceError, match="point 3"):
        DiscreteMeasure(((3, -1.0),))
    with pytest.raises(InvalidInstanceError, match="duplicate point 1"):
        DiscreteMeasure(((1, 0.5), (1, 0.25)))


def test_measure_array_round_trip_and_integration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        vals = rng.uniform(0.0, 1.0, size=8)
        vals[rng.uniform(size=8) < 0.4] = 0.0
        mu = DiscreteMeasure.from_array(vals)
        assert np.array_equal(mu.to_array(8), vals)
        probe = rng.uniform(-1.0, 1.0, size=8)
        assert mu.integrate(probe) == pytest.approx(float(vals @ probe), abs=1e-14)


def test_grid_space_shape():
    space = build_grid_space(3, 2)
    assert space.n_points == 6
    # 2 horizontal edges per row times 2 rows, 3 vertical edges.
    assert len(space.edges) == 7
    assert space.edge_length(grid_node(3, 0, 0), grid_node(3, 1, 0)) == 0.5
    assert space.edge_length(grid_node(3, 0, 0), grid_node(3, 0, 1)) == 1.0
    assert np.all(space.measure == 1.0 / 6.0)
    assert space.coords is not None
    assert tuple(space.coords[grid_node(3, 2, 1)]) == (1.0, 1.0)


def test_trapezoid_weights_sum_to_one():
    for k in (2, 5, 8):
        w = trapezoid_grid_weights(k, k)
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-14)
        h = 1.0 / (k - 1)
        assert w[grid_node(k, 0, 0)] == pytest.approx(h * h / 4)
        if k > 2:
            assert w[grid_node(k, 1, 1)] == pytest.approx(h * h)
            assert w[grid_node(k, 1, 0)] == pytest.approx(h * h / 2)


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(InvalidInstanceError):
        build_grid_space(0, 3)
    with pytest.raises(InvalidInstanceError):
        trapezoid_grid_weights(2, 0)
