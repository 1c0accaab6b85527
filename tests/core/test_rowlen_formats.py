"""ELL / SELL-C-sigma / HYB: the row-length-sensitive formats.

These formats exist for the auto-format selector, so their contract is
strict: conversions are lossless in both directions (including empty
rows and all-empty matrices, via CSR and COO), and their SpMV kernels
reconstruct CSR's exact accumulation order — results are *bitwise*
identical, not merely close.
"""

import numpy as np
import pytest
import scipy.sparse as sps

import repro.sparse as sp
from repro.harness.skew import power_law_csr
from tests.core.conftest import random_scipy_csr

FORMATS = ["ell", "sell", "hyb"]


def _host(arr) -> np.ndarray:
    return np.asarray(arr.to_numpy() if hasattr(arr, "to_numpy") else arr)


def _skew(n=96, m=64, seed=3, dtype=np.float64):
    return power_law_csr(n, m, max_len=24, seed=seed, dtype=dtype)


def _with_empty_rows():
    """A matrix whose first, middle and last rows are empty."""
    mat = random_scipy_csr(11, 8, density=0.4, seed=7).tolil()
    for row in (0, 5, 10):
        mat.rows[row] = []
        mat.data[row] = []
    return sps.csr_matrix(mat)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_lossless(self, rt, fmt):
        ref = _skew()
        A = sp.csr_matrix(ref).asformat(fmt)
        assert A.format == fmt
        assert A.shape == ref.shape
        assert A.nnz == ref.nnz
        np.testing.assert_array_equal(_host(A.toarray()), ref.toarray())
        back = A.tocsr()
        assert back.nnz == ref.nnz
        np.testing.assert_array_equal(_host(back.toarray()), ref.toarray())

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_rows_span_csr_and_coo(self, rt, fmt):
        """CSR -> fmt -> COO -> CSR -> fmt with empty rows throughout."""
        ref = _with_empty_rows()
        A = sp.csr_matrix(ref).asformat(fmt)
        assert A.nnz == ref.nnz
        np.testing.assert_array_equal(_host(A.toarray()), ref.toarray())
        via_coo = A.tocoo().tocsr().asformat(fmt)
        np.testing.assert_array_equal(_host(via_coo.toarray()), ref.toarray())
        back = sp.coo_matrix(ref.tocoo()).tocsr().asformat(fmt).tocsr()
        np.testing.assert_array_equal(_host(back.toarray()), ref.toarray())

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_all_rows_empty(self, rt, fmt):
        ref = sps.csr_matrix((5, 7), dtype=np.float64)
        A = sp.csr_matrix(ref).asformat(fmt)
        assert A.nnz == 0
        np.testing.assert_array_equal(_host(A.toarray()), np.zeros((5, 7)))
        y = A @ np.ones(7)
        np.testing.assert_array_equal(_host(y), np.zeros(5))
        assert A.tocoo().nnz == 0
        assert A.tocsr().nnz == 0


class TestBitwiseMatvec:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_csr_bitwise(self, rt, fmt, dtype):
        ref = _skew(dtype=dtype)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(ref.shape[1]).astype(dtype)
        if np.dtype(dtype).kind == "c":
            x = x + 1j * rng.standard_normal(ref.shape[1])
        A = sp.csr_matrix(ref)
        y_csr = _host(A @ x)
        y_fmt = _host(A.asformat(fmt) @ x)
        # Bitwise, not allclose: the kernels replay CSR's accumulation
        # order exactly, so converting an operand never changes results.
        assert np.array_equal(y_csr, y_fmt)

    def test_sell_custom_c_sigma(self, rt):
        ref = _skew()
        x = np.arange(ref.shape[1], dtype=np.float64)
        y_csr = _host(sp.csr_matrix(ref) @ x)
        for c, sigma in ((4, 8), (8, 96), (3, 7)):
            B = sp.csr_matrix(ref).tosell(c=c, sigma=sigma)
            assert (B.c, B.sigma) == (c, sigma)
            assert np.array_equal(y_csr, _host(B @ x))

    def test_hyb_custom_quantile(self, rt):
        ref = _skew()
        x = np.arange(ref.shape[1], dtype=np.float64)
        y_csr = _host(sp.csr_matrix(ref) @ x)
        for quantile in (0.5, 0.99):
            B = sp.csr_matrix(ref).tohyb(quantile=quantile)
            assert np.array_equal(y_csr, _host(B @ x))
        wide = sp.csr_matrix(ref).tohyb(quantile=1.0)
        assert wide.spill_nnz == 0  # pure ELL part at the max quantile


class TestValueOps:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_scale_negate_copy(self, rt, fmt):
        ref = _skew(n=24, m=16)
        A = sp.csr_matrix(ref).asformat(fmt)
        np.testing.assert_array_equal(
            _host((A * 2.5).toarray()), (ref * 2.5).toarray()
        )
        np.testing.assert_array_equal(_host((-A).toarray()), (-ref).toarray())
        dup = A.copy()
        assert dup.format == fmt
        np.testing.assert_array_equal(_host(dup.toarray()), ref.toarray())

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_astype_and_conj(self, rt, fmt):
        ref = _skew(n=24, m=16, dtype=np.complex128)
        A = sp.csr_matrix(ref).asformat(fmt)
        np.testing.assert_array_equal(
            _host(A.conj().toarray()), ref.conj().toarray()
        )
        widened = sp.csr_matrix(_skew(n=24, m=16)).asformat(fmt)
        widened = widened.astype(np.complex128)
        assert widened.dtype == np.complex128
