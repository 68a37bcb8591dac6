import numpy as np

import oracles


class TestEmReference:
    def test_separated_clusters_are_resolved(self, rng):
        a = rng.standard_normal((40, 3)) * 0.05 + np.array([5.0, 0.0, 0.0])
        b = rng.standard_normal((40, 3)) * 0.05 - np.array([5.0, 0.0, 0.0])
        data = np.vstack([a, b])
        mu0 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        resp, means = oracles.em_reference(data, 2, mu0, np.ones(3), iters=20)
        assert np.all(resp[:40, 0] >= 0.99)
        assert np.all(resp[40:, 1] >= 0.99)

    def test_single_component_gets_everything(self, rng):
        data = rng.standard_normal((10, 4))
        resp, means = oracles.em_reference(data, 1, data[:1], np.ones(4), iters=3)
        np.testing.assert_array_equal(resp, 1.0)
        np.testing.assert_allclose(means[0], data.mean(axis=0), atol=1e-12)


class TestSimplexPgMinimize:
    def test_zero_coefficients_give_uniform(self):
        out = oracles.simplex_pg_minimize(np.zeros(4), steps=20_000)
        np.testing.assert_allclose(out, 0.25, atol=1e-9)

    def test_dominated_coordinate_is_squeezed_out(self):
        out = oracles.simplex_pg_minimize(np.array([0.0, 50.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    def test_matches_analytic_softmax(self, rng):
        a = rng.uniform(-2, 2, size=5)
        out = oracles.simplex_pg_minimize(a)
        want = np.exp(-a - (-a).max())
        want /= want.sum()
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_batch_rows_are_independent_problems(self, rng):
        a = rng.uniform(-2, 2, size=(3, 4))
        batch = oracles.simplex_pg_minimize(a, steps=30_000)
        for i in range(3):
            single = oracles.simplex_pg_minimize(a[i], steps=30_000)
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


class TestProjectSimplex:
    def test_outputs_live_on_simplex(self, rng):
        pts = rng.standard_normal((20, 6)) * 3
        out = oracles.project_simplex(pts)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_fixed_point_on_simplex_points(self, rng):
        pts = rng.dirichlet(np.ones(5), size=10)
        np.testing.assert_allclose(oracles.project_simplex(pts), pts, atol=1e-12)


class TestFiniteDiffGrad:
    def test_sum_of_squares_at_origin(self):
        g = oracles.finite_diff_grad(lambda x: float(np.sum(x**2)), np.zeros(4))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_linear_map_recovers_coefficients(self, rng):
        c = rng.standard_normal(6)
        g = oracles.finite_diff_grad(lambda x: float(c @ x), rng.standard_normal(6))
        np.testing.assert_allclose(g, c, atol=1e-9)

    def test_respects_shape(self, rng):
        point = rng.standard_normal((2, 3))
        g = oracles.finite_diff_grad(lambda m: float(np.sum(m**3)), point)
        np.testing.assert_allclose(g, 3 * point**2, atol=1e-7)


def test_brute_force_knn_trivial_pair(rng):
    v = rng.standard_normal((2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = oracles.brute_force_knn(v, 3)
    assert out[0][0][0] == 1 and out[1][0][0] == 0
    assert out[0][0][1] == max(0.0, float(v[0] @ v[1]))
