import numpy as np
import pytest

from apiq.errors import ConfigError, NumericError, ShapeError
from apiq.linalg import group_minmax, matmul, truncated_svd
from apiq.rng import RngState


class TestMatmul:
    def test_identity(self):
        m = RngState(1).randn((3, 3))
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))

    def test_zero_case(self):
        m = RngState(2).randn((4, 4))
        assert np.array_equal(matmul(np.zeros((4, 4)), m), np.zeros((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_associativity_small_integers(self):
        r = RngState(3)
        a = r.randint(-3, 4, (4, 5)).astype(np.float64)
        b = r.randint(-3, 4, (5, 6)).astype(np.float64)
        c = r.randint(-3, 4, (6, 2)).astype(np.float64)
        assert np.array_equal(matmul(matmul(a, b), c), matmul(a, matmul(b, c)))

    def test_batched(self):
        r = RngState(4)
        a = r.randn((2, 3, 4))
        b = r.randn((4, 5))
        out = matmul(a, b)
        assert out.shape == (2, 3, 5)
        assert np.allclose(out[1], a[1] @ b)


class TestGroupMinmax:
    def test_constant_matrix(self):
        w = np.full((8, 3), 2.5)
        mins, maxs = group_minmax(w, 4)
        assert np.all(mins == 2.5) and np.all(maxs == 2.5)

    def test_column_groups(self):
        w = np.array([[0.0], [1.0], [2.0], [3.0]])
        mins, maxs = group_minmax(w, 2)
        assert np.array_equal(mins, [[0.0], [2.0]])
        assert np.array_equal(maxs, [[1.0], [3.0]])

    def test_whole_column_group(self):
        w = np.array([[-1.0], [5.0], [0.0], [2.0]])
        mins, maxs = group_minmax(w, 4)
        assert mins == [[-1.0]] and maxs == [[5.0]]

    def test_ragged_rejected(self):
        with pytest.raises(ConfigError):
            group_minmax(np.zeros((6, 2)), 4)


class TestTruncatedSvd:
    def test_diagonal(self):
        res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 3)
        assert np.allclose(res.s, [3.0, 2.0, 1.0])

    def test_rank_one_outer(self):
        r = RngState(5)
        u = r.randn((6,))
        v = r.randn((4,))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        res = truncated_svd(np.outer(u, v), 1)
        assert abs(res.s[0] - 1.0) < 1e-10
        recon = res.u @ np.diag(res.s) @ res.v.T
        assert np.abs(recon - np.outer(u, v)).max() < 1e-10

    def test_matches_full_svd_oracle(self):
        m = RngState(6).randn((4, 4))
        res = truncated_svd(m, 2)
        resid = np.linalg.norm(m - res.u @ np.diag(res.s) @ res.v.T) ** 2
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(resid - (s[2] ** 2 + s[3] ** 2)) < 1e-9

    @pytest.mark.parametrize("shape", [(4, 4), (6, 5), (5, 8), (8, 8)])
    def test_orthonormality_and_order(self, shape):
        for seed in range(5):
            m = RngState(100 + seed).randn(shape)
            k = min(shape)
            res = truncated_svd(m, k)
            assert np.abs(res.u.T @ res.u - np.eye(k)).max() <= 1e-5
            assert np.abs(res.v.T @ res.v - np.eye(k)).max() <= 1e-5
            assert np.all(np.diff(res.s) <= 1e-12)
            assert np.all(res.s >= 0)

    def test_eckart_young_vs_random_factorizations(self):
        rng = RngState(77)
        for n in (4, 5, 8):
            m = rng.randn((n, n))
            for k in range(1, n + 1):
                res = truncated_svd(m, k)
                best = np.linalg.norm(m - res.u @ np.diag(res.s) @ res.v.T)
                sampler = RngState(500 + n * 10 + k)
                for _ in range(1000):
                    a = sampler.randn((n, k))
                    b = sampler.randn((n, k))
                    assert best <= np.linalg.norm(m - a @ b.T) + 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)

    def test_deterministic(self):
        m = RngState(8).randn((16, 9))
        a = truncated_svd(m, 4)
        b = truncated_svd(m, 4)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.s.tobytes() == b.s.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (9, 9)])
    def test_sign_convention(self, shape):
        m = RngState(9).randn(shape)
        res = truncated_svd(m, min(shape))
        cols = np.arange(res.u.shape[1])
        first_max = np.abs(res.u).argmax(axis=0)
        assert np.all(res.u[first_max, cols] > 0)
        assert np.abs(res.u @ np.diag(res.s) @ res.v.T - m).max() < 1e-12

    def test_sign_tie_takes_first_entry(self, monkeypatch):
        # an exact magnitude tie in u's first column: its first entry decides
        u = np.array([[-0.6, 0.8], [0.6, 0.0], [0.0, -0.6]])
        vt = np.eye(2)
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: (u, np.array([2.0, 1.0]), vt))
        res = truncated_svd(np.ones((3, 2)), 2)
        assert np.array_equal(res.u, [[0.6, 0.8], [-0.6, 0.0], [0.0, -0.6]])
        assert np.array_equal(res.v, [[-1.0, 0.0], [0.0, 1.0]])

    def test_rank_deficient_zero_matrix(self):
        res = truncated_svd(np.zeros((5, 3)), 3)
        assert np.array_equal(res.s, np.zeros(3))
        assert np.abs(res.u.T @ res.u - np.eye(3)).max() <= 1e-12
        assert np.abs(res.v.T @ res.v - np.eye(3)).max() <= 1e-12

    def test_infinite_entry_raises(self):
        with pytest.raises(NumericError):
            truncated_svd(np.array([[np.inf, 1.0], [1.0, 1.0]]), 1)

    def test_all_nan_raises(self):
        with pytest.raises(NumericError):
            truncated_svd(np.full((3, 3), np.nan), 2)

    def test_lapack_failure_maps_to_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericError):
            truncated_svd(np.eye(3), 2)
