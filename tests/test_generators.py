import numpy as np
import pytest

import medianjn as mj
from medianjn.errors import InvalidDim, InvalidParameter, UnknownKind


def test_grid_examples():
    two = mj.grid_space(1, 2)
    assert two.n == 2 and two.dist[0, 1] == 1.0
    nine = mj.grid_space(2, 3, spacing=0.5)
    assert nine.n == 9
    corner = nine.dist[nine.index("p0"), nine.index("p8")]
    assert corner == pytest.approx(2 * np.sqrt(2) * 0.5, rel=1e-12)
    normalized = mj.grid_space(1, 7, weight_profile="normalized")
    assert normalized.total_measure == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InvalidDim):
        mj.grid_space(3, 2)


@pytest.mark.parametrize("dim, n, spacing", [(1, 96, 1.0 / 96), (2, 6, 0.1)])
def test_grid_distances_keep_lattice_ties(dim, n, spacing):
    # Rounded coordinates would split equal lattice distances into several
    # values, and with them balls; a grid's geometry is that at spacing 1.
    g, unit = mj.grid_space(dim, n, spacing=spacing), mj.grid_space(dim, n)
    assert np.array_equal(g.dist, unit.dist * spacing)
    assert len(mj.canonical_balls(g)) == len(mj.canonical_balls(unit))
    assert mj.doubling_profile(g).c_mu == mj.doubling_profile(unit).c_mu


def test_grid_avoids_origin():
    g = mj.grid_space(1, 4, spacing=0.25)
    assert g.coords[:, 0].min() > 0.0


def test_cluster_space_structure():
    cs = mj.cluster_space(4, ratio=10.0)
    assert cs.n == 16
    assert mj.doubling_profile(cs).c_mu == 2.0


def test_determinism():
    a = mj.grid_space(1, 6, weight_profile="random", seed=9)
    b = mj.grid_space(1, 6, weight_profile="random", seed=9)
    assert np.array_equal(a.weights, b.weights)
    fa = mj.canonical_function("random_piecewise", a, {"pieces": 3}, seed=4)
    fb = mj.canonical_function("random_piecewise", b, {"pieces": 3}, seed=4)
    assert np.array_equal(fa.values, fb.values)


def test_log_blowup_values():
    g = mj.grid_space(1, 64, spacing=1.0 / 64)
    f = mj.canonical_function("log_blowup", g)
    x = g.coords[:, 0]
    assert np.array_equal(f.values, np.log(1.0 / x))


def test_power_and_step():
    g = mj.grid_space(1, 8, spacing=1.0 / 8)
    f = mj.canonical_function("power", g, {"beta": 0.5})
    assert np.array_equal(f.values, g.coords[:, 0] ** -0.5)
    const = mj.canonical_function("step", g, {"levels": [3.0], "breaks": []})
    assert set(const.values) == {3.0}
    stepped = mj.canonical_function("step", g, {"levels": [0.0, 1.0], "breaks": [0.5]})
    assert set(stepped.values) == {0.0, 1.0}


def test_two_valued():
    g = mj.grid_space(1, 10)
    f = mj.canonical_function("two_valued", g, {"lo": -1.0, "hi": 2.0}, seed=5)
    assert set(f.values) == {-1.0, 2.0}
    single = mj.grid_space(1, 1)
    with pytest.raises(InvalidParameter):
        mj.canonical_function("two_valued", single)


def test_unknown_kind():
    g = mj.grid_space(1, 4)
    with pytest.raises(UnknownKind):
        mj.canonical_function("nope", g)
