import numpy as np
import pytest

from wulffkit import symfunc as sym
from wulffkit.errors import IndexOutOfRange, TooLarge


def test_sigma_identity_matrix():
    assert sym.sigma_k(np.eye(3), 2) == pytest.approx(3.0, abs=1e-14)  # C(3,2)


def test_sigma_diag_123():
    A = np.diag([1.0, 2.0, 3.0])
    assert sym.sigma_k(A, 1) == pytest.approx(6.0, abs=1e-12)
    assert sym.sigma_k(A, 2) == pytest.approx(11.0, abs=1e-12)
    assert sym.sigma_k(A, 3) == pytest.approx(6.0, abs=1e-12)


def test_sigma_recursion_matches_minors_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        for k in range(5):
            a = sym.sigma_k(A, k)
            b = sym.sigma_k_minors_oracle(A, k)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_minors_oracle_trivia():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4))
    assert sym.sigma_k_minors_oracle(A, 1) == pytest.approx(np.trace(A), abs=1e-12)
    assert sym.sigma_k_minors_oracle(A, 4) == pytest.approx(np.linalg.det(A), rel=1e-12)


def test_three_sigma_routes_agree_for_symmetric():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5):
        M = rng.standard_normal((n, n))
        A = 0.5 * (M + M.T)
        for k in range(n + 1):
            a = sym.sigma_k(A, k)
            b = sym.sigma_k_minors_oracle(A, k)
            c = sym.sigma_k_eigen_oracle(A, k)
            scale = max(1.0, abs(a))
            assert abs(a - b) / scale < 1e-8
            assert abs(a - c) / scale < 1e-8


def test_similarity_invariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    P = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    B = P @ A @ np.linalg.inv(P)
    for k in range(1, 5):
        a, b = sym.sigma_k(A, k), sym.sigma_k(B, k)
        assert abs(a - b) / max(1.0, abs(a)) < 1e-8


def test_newton_tensor_small_cases():
    A = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(sym.newton_tensor(A, 1), np.diag([5.0, 4.0, 3.0]), atol=1e-12)
    assert np.allclose(sym.newton_tensor(np.eye(3), 1), 2 * np.eye(3), atol=1e-14)


def test_newton_tensor_top_order_vanishes():
    # Cayley-Hamilton: T_n(A) = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        assert np.max(np.abs(sym.newton_tensor(A, 3))) < 1e-9


def test_kronecker_symbol_basic():
    assert sym.generalized_kronecker((0, 1), (0, 1)) == 1
    assert sym.generalized_kronecker((0, 1), (1, 0)) == -1
    assert sym.generalized_kronecker((0, 0), (0, 1)) == 0
    assert sym.generalized_kronecker((0, 1), (0, 2)) == 0
    assert sym.generalized_kronecker((2, 0, 1), (0, 1, 2)) == 1  # even cycle


def test_entries_oracle_k0_identity():
    A = np.random.default_rng(5).standard_normal((3, 3))
    assert np.allclose(sym.newton_entries_oracle(A, 0), np.eye(3), atol=1e-14)


def test_entries_oracle_diag_arithmetic():
    # diag(1,2,3), k=2: sigma_2 I - T_1 A = diag(11,11,11) - diag(5,8,9)
    A = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(sym.newton_entries_oracle(A, 2),
                       np.diag([6.0, 3.0, 2.0]), atol=1e-12)


def test_entries_oracle_matches_recursion():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for _ in range(10):
            A = rng.standard_normal((n, n))
            for k in range(0, min(3, n) + 1):
                T_rec = sym.newton_tensor(A, k)
                T_orc = sym.newton_entries_oracle(A, k)
                assert np.max(np.abs(T_rec - T_orc)) < 1e-10


def test_gradient_relation_k1_trivial():
    A = np.random.default_rng(7).standard_normal((3, 3))
    assert sym.gradient_relation_residual(A, 1) < 1e-8


def test_gradient_relation_fd():
    rng = np.random.default_rng(8)
    for k in (2, 3):
        A = rng.standard_normal((4, 4))
        assert sym.gradient_relation_residual(A, k) < 1e-6


def test_gradient_relation_cofactor_case():
    # k = n with A = I: the partial of det is the cofactor, here the identity
    assert sym.gradient_relation_residual(np.eye(3), 3) < 1e-8


def test_trace_identities_identity_matrix():
    for k in range(1, 4):
        a, b = sym.trace_identity_residuals(np.eye(3), k)
        assert a < 1e-12 and b < 1e-12


def test_trace_identities_random():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    for k in range(1, 6):
        a, b = sym.trace_identity_residuals(A, k)
        assert a < 1e-9 and b < 1e-9


def test_trace_identity_arithmetic_example():
    # diag(1,2,3), k=2: tr T_2 = (3-2) * 11
    A = np.diag([1.0, 2.0, 3.0])
    assert np.trace(sym.newton_tensor(A, 2)) == pytest.approx(11.0, abs=1e-12)


def test_normalized_curvature_sphere_values():
    S = -np.eye(2)
    for k in range(3):
        assert sym.normalized_k_curvature(S, k) == pytest.approx((-1.0) ** k, abs=1e-14)
    Z = np.zeros((2, 2))
    assert sym.normalized_k_curvature(Z, 0) == 1.0
    assert sym.normalized_k_curvature(Z, 1) == 0.0
    rng = np.random.default_rng(10)
    M = rng.standard_normal((3, 3))
    assert sym.normalized_k_curvature(M, 1) == pytest.approx(np.trace(M) / 3, abs=1e-12)


def test_guards():
    with pytest.raises(IndexOutOfRange):
        sym.sigma_k(np.eye(3), 4)
    with pytest.raises(TooLarge):
        sym.sigma_k_minors_oracle(np.eye(7), 2)
    with pytest.raises(TooLarge):
        sym.newton_entries_oracle(np.eye(5), 2)
