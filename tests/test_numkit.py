import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from _oracles import bincount_matvec, gen_sym_eig, loop_assembly, loop_mesh, merged_triplets
from fracstep.numkit import CgError, SparseMatrix, cg_solve
from fracstep.meshfem import fem_system


def sparse_from_dense(A):
    rows, cols = np.nonzero(A)
    return SparseMatrix.from_coo(A.shape[0], A.shape[1], rows, cols, A[rows, cols])


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + (shift if shift is not None else n) * np.eye(n)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSparseMatrix:
    def test_from_coo_sums_duplicates(self):
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert np.array_equal(A.offsets, [-1, 1])
        assert np.array_equal(A.to_dense(), [[0.0, 3.0], [5.0, 0.0]])

    def test_explicit_zeros_kept(self):
        A = SparseMatrix.from_coo(2, 2, [0, 0], [0, 1], [1.0, 0.0])
        assert np.array_equal(A.offsets, [0, 1])
        assert np.array_equal(A.bands, [[1.0, 0.0], [0.0, 0.0]])

    def test_matvec_against_scipy(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        D = rng.standard_normal((40, 40))
        D[rng.random((40, 40)) < 0.7] = 0.0
        A = sparse_from_dense(D)
        assert np.array_equal(A.to_dense(), D)
        x = rng.standard_normal(40)
        ref = sp.csr_matrix(D) @ x
        assert np.allclose(A.matvec(x), ref, atol=1e-14)

    @pytest.mark.parametrize(
        "rows,cols,vals,message",
        [
            ([-1], [0], [1.0], "row index out of range"),
            ([0, 2], [0, 1], [1.0, 2.0], "row index out of range"),
            ([0], [2], [1.0], "column index out of range"),
            ([0], [-1], [1.0], "column index out of range"),
            ([0, 1], [0, 1], [1.0], "triplets of unequal length"),
            ([0, 1], [0], [1.0, 2.0], "triplets of unequal length"),
            # truncated to intp, the first would read as diag(1, 2)
            ([0.7, 1.9], [0, 1], [1.0, 2.0], "row indices must be integers"),
            ([0, 1], np.array([0.0, 1.0]), [1.0, 2.0], "column indices must be integers"),
            ([True, False], [0, 1], [1.0, 2.0], "row indices must be integers"),
        ],
    )
    def test_from_coo_rejects_bad_triplets(self, rows, cols, vals, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrix.from_coo(2, 2, rows, cols, vals)

    @pytest.mark.parametrize(
        "offsets,cols,message",
        [
            # one nonzero per band, at column cols[k] of row cols[k] - offsets[k]
            ([1], [2], "column index out of range"),
            ([-1], [-1], "column index out of range"),
            ([1, 0], [1, 0], "offsets must be strictly increasing integers"),
            ([0, 0], [0, 1], "offsets must be strictly increasing integers"),
            ([2], [2], "offsets must be strictly increasing integers"),
            ([-2], [-2], "offsets must be strictly increasing integers"),
            (np.array([0.0]), [0], "offsets must be strictly increasing integers"),
        ],
    )
    def test_bad_layout_rejected_at_construction(self, offsets, cols, message):
        bands = np.zeros((len(offsets), 2))
        for k, (o, c) in enumerate(zip(offsets, cols)):
            bands[k, int(c - o)] = 1.0
        with pytest.raises(ValueError, match=message):
            SparseMatrix(2, 2, offsets, bands)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2,)])
    def test_bands_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"bands must have shape \(1, 2\)"):
            SparseMatrix(2, 2, [0], np.ones(shape))

    def test_list_inputs(self):
        A = SparseMatrix(1, 2, [0, 1], [[1.0], [2.0]])
        assert all(isinstance(a, np.ndarray) for a in (A.offsets, A.bands))
        assert np.array_equal(A.matvec(np.array([3.0, 5.0])), [13.0])
        # zeros may lie outside the matrix, nonzeros may not
        assert np.array_equal(SparseMatrix(2, 2, [1], [[4.0, 0.0]]).to_dense(), [[0.0, 4.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="column index out of range"):
            SparseMatrix(2, 2, [1], [[4.0, 1.0]])
        B = SparseMatrix.from_coo(1, 2, [0, 0], [1, 0], [2.0, 1.0])
        assert np.array_equal(B.bands, A.bands) and np.array_equal(B.offsets, A.offsets)

    def test_matvec_rejects_wrong_length(self):
        A = fem_system(4).mass
        for x in (np.ones(A.n_cols + 1), np.ones(A.n_cols - 1), np.ones((A.n_cols, 1))):
            with pytest.raises(ValueError, match=rf"x must have shape \({A.n_cols},\)"):
                A.matvec(x)

    def test_matvec_without_entries_is_float(self):
        y = SparseMatrix.from_coo(3, 3, [], [], []).matvec(np.ones(3))
        assert y.dtype == np.float64 and np.array_equal(y, np.zeros(3))

    @pytest.mark.parametrize("M", [2, 6, 16, 64])
    def test_matvec_bit_identical_on_mesh(self, M):
        sys_ = fem_system(M)
        rows, cols, mass, stiffness, _ = loop_assembly(*loop_mesh(M))
        rng = np.random.default_rng(M)
        for A, vals in (
            (sys_.mass, mass),
            (sys_.stiffness, stiffness),
            (sys_.mass.scaled_add(1.7, sys_.stiffness, 0.3), 1.7 * mass + 0.3 * stiffness),
        ):
            for x in (rng.standard_normal(A.n_cols), np.ones(A.n_cols)):
                assert_same_bits(A.matvec(x), bincount_matvec(A.n_rows, rows, cols, vals, x))

    @pytest.mark.parametrize(
        "shape", [(40, 40), (25, 60), (60, 25), (1, 1), (5, 0), (0, 5), (0, 0)]
    )
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3])
    def test_matvec_bit_identical_on_random_patterns(self, shape, density):
        # explicit zeros, duplicate triplets, empty rows, negative zeros in x
        n_rows, n_cols = shape
        rng = np.random.default_rng(n_rows * 1000 + n_cols + int(100 * density))
        nnz = int(density * n_rows * n_cols)
        rows = rng.integers(0, n_rows // 2 + 1, nnz)  # leaves rows empty
        cols = rng.integers(0, max(n_cols, 1), nnz)
        vals = rng.standard_normal(nnz)
        vals[rng.random(nnz) < 0.2] = 0.0
        A = SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
        rows, cols, vals = merged_triplets(rows, cols, vals)
        dense = np.zeros(shape)
        dense[rows, cols] = vals
        assert_same_bits(A.to_dense(), dense)
        x = rng.standard_normal(n_cols)
        x[rng.random(n_cols) < 0.2] = -0.0
        assert_same_bits(A.matvec(x), bincount_matvec(n_rows, rows, cols, vals, x))

    def test_scaled_add(self):
        D1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        D2 = np.array([[4.0, -1.0], [-1.0, 4.0]])
        A = sparse_from_dense(D1)
        B = sparse_from_dense(D2)
        C = A.scaled_add(2.0, B, 3.0)
        assert np.allclose(C.to_dense(), 2 * D1 + 3 * D2)
        with pytest.raises(ValueError, match="sparsity patterns differ"):
            A.scaled_add(1.0, sparse_from_dense(np.eye(2)), 1.0)
        with pytest.raises(ValueError, match="sparsity patterns differ"):
            sparse_from_dense(np.eye(2)).scaled_add(1.0, sparse_from_dense(np.eye(2, 3)), 1.0)

    def test_runtime_imports_numpy_alone(self):
        # numpy is the only runtime dependency, and np.unique would pull in
        # numpy.ma: assemble, step once with CG and build from triplets
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import fracstep\n"
            "from fracstep.meshfem import fem_system\n"
            "from fracstep.numkit import SparseMatrix\n"
            "sys_ = fem_system(16)\n"
            "sys_.step_system(1.0, 0.5).solve(np.ones(sys_.n_dof))\n"
            "SparseMatrix.from_coo(2, 2, [0, 1, 1], [0, 0, 1], [1.0, 2.0, 3.0])\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
            "             or m.startswith('numpy.ma.') or m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestCg:
    def test_identity(self):
        A = sparse_from_dense(np.eye(3))
        x = cg_solve(A, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_2x2_row_sums(self):
        A = sparse_from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = cg_solve(A, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_against_dense_cholesky(self):
        B = random_spd(50, seed=7)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(50)
        x = cg_solve(sparse_from_dense(B), b)
        ref = sla.solve(B, b, assume_a="pos")
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_residual_contract(self):
        B = random_spd(30, seed=1)
        b = np.ones(30)
        A = sparse_from_dense(B)
        x = cg_solve(A, b, rel_tol=1e-12)
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        A = sparse_from_dense(np.eye(4))
        assert np.all(cg_solve(A, np.zeros(4)) == 0.0)

    def test_nonconvergence_raises_with_residual(self):
        # an ill-conditioned system cannot converge in one iteration
        B = random_spd(40, seed=2, shift=1e-6)
        A = sparse_from_dense(B)
        with pytest.raises(CgError) as exc:
            cg_solve(A, np.ones(40), rel_tol=1e-14, max_iter=1)
        assert exc.value.residual > 0.0
        assert exc.value.iterations == 1

    def test_indefinite_matrix_reported(self):
        # eigenvalues 3 and -1; the first search direction has p^T A p = -2
        A = sparse_from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(CgError, match="not positive definite"):
            cg_solve(A, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("n,seed", [(20, 0), (100, 1), (200, 2)])
    def test_agrees_with_cholesky_up_to_200(self, n, seed):
        B = random_spd(n, seed=seed)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal(n)
        x = cg_solve(sparse_from_dense(B), b)
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
