import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from _oracles import DenseOperator, gen_sym_eig
from fracstep.numkit import CgError, cg_solve
from fracstep.meshfem import fem_system


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + (shift if shift is not None else n) * np.eye(n)


class TestCg:
    def test_runtime_imports_numpy_alone(self):
        # numpy is the only runtime dependency, and numpy.ma stays unloaded:
        # assemble and step once with CG
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import fracstep\n"
            "from fracstep.meshfem import fem_system\n"
            "sys_ = fem_system(16)\n"
            "sys_.step_system(1.0, 0.5).solve(np.ones(sys_.n_dof))\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
            "             or m.startswith('numpy.ma.') or m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_identity(self):
        A = DenseOperator(np.eye(3))
        x = cg_solve(A, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_2x2_row_sums(self):
        A = DenseOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = cg_solve(A, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_against_dense_cholesky(self):
        B = random_spd(50, seed=7)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(50)
        x = cg_solve(DenseOperator(B), b)
        ref = sla.solve(B, b, assume_a="pos")
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_residual_contract(self):
        B = random_spd(30, seed=1)
        b = np.ones(30)
        A = DenseOperator(B)
        x = cg_solve(A, b, rel_tol=1e-12)
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        A = DenseOperator(np.eye(4))
        assert np.all(cg_solve(A, np.zeros(4)) == 0.0)

    def test_nonconvergence_raises_with_residual(self):
        # an ill-conditioned system cannot converge in one iteration
        B = random_spd(40, seed=2, shift=1e-6)
        A = DenseOperator(B)
        with pytest.raises(CgError) as exc:
            cg_solve(A, np.ones(40), rel_tol=1e-14, max_iter=1)
        assert exc.value.residual > 0.0
        assert exc.value.iterations == 1

    def test_indefinite_matrix_reported(self):
        # eigenvalues 3 and -1; the first search direction has p^T A p = -2
        A = DenseOperator(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CgError, match="not positive definite"):
            cg_solve(A, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("n,seed", [(20, 0), (100, 1), (200, 2)])
    def test_agrees_with_cholesky_up_to_200(self, n, seed):
        B = random_spd(n, seed=seed)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(n)
        x = cg_solve(DenseOperator(B), b)
        ref = sla.solve(B, b, assume_a="pos")
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


class TestGenSymEig:
    """The dense oracle of ``reference._eigensystem``, ``_oracles.gen_sym_eig``."""

    def test_identity_pair(self):
        w, Phi = gen_sym_eig(np.eye(3), np.eye(3))
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_diagonal(self):
        w, _ = gen_sym_eig(np.diag([1.0, 4.0]), np.eye(2))
        assert np.allclose(w, [1.0, 4.0], atol=1e-12)

    def test_mass_not_pd(self):
        with pytest.raises(ValueError, match="mass matrix not PD"):
            gen_sym_eig(np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("pencil", [0, 1, "fem16"])
    def test_against_scipy(self, pencil):
        if pencil == "fem16":
            # the pencil behind the discrete modal reference, 225 dofs
            sys16 = fem_system(16)
            S, M = sys16.stiffness.to_dense(), sys16.mass.to_dense()
            tol = 1e-12
        else:
            S = random_spd(40, seed=pencil, shift=0.5)
            M = random_spd(40, seed=pencil + 50)
            tol = 1e-10
        w, Phi = gen_sym_eig(S, M)
        w_ref = sla.eigh(S, M, eigvals_only=True)
        assert np.allclose(w, w_ref, rtol=tol, atol=tol)
        G = Phi.T @ M @ Phi
        assert np.max(np.abs(G - np.eye(len(w)))) <= tol

    def test_m_orthonormal_and_residual(self):
        S = random_spd(35, seed=11, shift=0.1)
        M = random_spd(35, seed=12)
        w, Phi = gen_sym_eig(S, M)
        G = Phi.T @ M @ Phi
        assert np.max(np.abs(G - np.eye(35))) <= 1e-10
        R = S @ Phi - (M @ Phi) * w
        assert np.max(np.abs(R)) <= 1e-8 * np.linalg.norm(S)
        assert np.all(np.diff(w) >= 0.0)
