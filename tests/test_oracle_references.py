"""The oracle's live-row paths and kernel_eval's per-kernel plan against the
loops they replace, bit for bit.

`_reference_expm` and `_reference_shifted` are the loops the package ran
before: Taylor terms over every row of the window, and a zero band allocated
on every product of `shifted`.
"""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import PARAMS
from heatkernel.exactcore import Poly
from heatkernel.kernel import KernelFormula, assemble_kernel, kernel_eval
from heatkernel.oracle import _THETA, _slices, expm, lattice_window
from heatkernel.taudarboux import ParamVector, operator_build

# the oracle_grid benchmark's (1,1) draws at seeds 1, 7 and 103 (103 is near a tau zero)
DRAWS = {
    1: ParamVector.from_alpha_beta(1, 1, F(-2, 11), F(2, 13)),
    7: ParamVector.from_alpha_beta(1, 1, F(3, 11), F(1, 13)),
    103: ParamVector.from_alpha_beta(1, 1, F(4, 11), F(-2, 13)),
}
NEAR_SINGULAR = [DRAWS[103], ParamVector(1, 2, [F(2), F(0), F(-4), F(-4)])]
P33 = ParamVector(3, 3, [F(1, 3), F(1, 7), F(2, 5), F(1, 11)])


def _band_apply(bands: dict, X: np.ndarray) -> np.ndarray:
    out = np.zeros_like(X)
    for j, b in bands.items():
        rows, src = _slices(j, len(X))
        out[rows] += b[rows, None] * X[src]
    return out


def _reference_expm(window, columns, t):
    """expm with every Taylor term over the whole window."""
    mu, A, d = window.shifted
    if t * d[1] <= 2 * 2 * 8 * 11 * _THETA[55] / (columns.shape[1] * 55):
        plans = [(m, math.ceil(t * d[1] / theta)) for m, theta in _THETA.items()]
    else:
        plans = [(m, math.ceil(t * max(d[p], d[p + 1]) / _THETA[m]))
                 for p in range(2, 9) for m in _THETA if m >= p * (p - 1) - 1]
    m_star, s = min(plans, key=lambda plan: plan[0] * plan[1])
    s = max(s, 1)
    eta = math.exp(t * mu / s)
    F_ = B = columns
    for _ in range(s):
        c1 = np.abs(B).sum(axis=1).max()
        for j in range(m_star):
            B = t / (s * (j + 1)) * _band_apply(A, B)
            c2 = np.abs(B).sum(axis=1).max()
            F_ = F_ + B
            if c1 + c2 <= 2.0 ** -53 * np.abs(F_).sum(axis=1).max():
                break
            c1 = c2
        F_ = B = eta * F_
    return F_


def _reference_shifted(window):
    """mu and d_p with a zero band allocated on every product."""
    A = {0: np.zeros(2 * window.W + 1), **window.bands}
    mu = float(A[0].mean())
    A[0] = A[0] - mu
    power, d = {0: np.ones_like(A[0])}, [0.0]
    for p in range(1, 10):
        previous, power, column_sums = power, {}, np.zeros_like(A[0])
        for j, a in previous.items():
            rows, src = _slices(j, len(a))
            for k, b in A.items():
                power.setdefault(j + k, np.zeros_like(a))[rows] += a[rows] * b[src]
        for j, a in power.items():
            rows, src = _slices(j, len(a))
            column_sums[src] += np.abs(a[rows])
        d.append(column_sums.max() ** (1.0 / p))
    return mu, d


def _same_bits(got, ref) -> bool:
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _unit_columns(W, sources):
    columns = np.zeros((2 * W + 1, len(sources)))
    columns[[W + m for m in sources], range(len(sources))] = 1.0
    return columns


@pytest.mark.parametrize("seed", sorted(DRAWS))
def test_shifted_matches_reference(seed):
    window = lattice_window(operator_build(DRAWS[seed]), 200)
    mu, _, d = window.shifted
    ref_mu, ref_d = _reference_shifted(window)
    assert mu.hex() == ref_mu.hex()
    assert [x.hex() for x in d] == [float(x).hex() for x in ref_d]


@pytest.mark.parametrize("key", [(1, 0), (1, 1), (2, 2), (3, 3)])
def test_expm_sources_at_half_window(key):
    # sources at exactly W/2 on both sides; at t = 4 the live rows reach an edge
    params = P33 if key == (3, 3) else PARAMS[key]
    W = 40
    window = lattice_window(operator_build(params), W)
    columns = _unit_columns(W, [-W // 2, 0, W // 2])
    for t in (0.25, 1.0, 4.0):
        assert _same_bits(expm(window, columns, t), _reference_expm(window, columns, t)), t


@pytest.mark.parametrize("key", [(1, 1), (2, 2)])
def test_expm_clamped_at_both_edges(key):
    # a small window: the live range reaches row 0 and row 2W within a few terms
    W = 6
    window = lattice_window(operator_build(PARAMS[key]), W)
    columns = _unit_columns(W, [-1, 0, 2])
    for t in (0.5, 3.0, 10.0):
        got = expm(window, columns, t)
        assert got[0].any() and got[-1].any()
        assert _same_bits(got, _reference_expm(window, columns, t)), t


@pytest.mark.parametrize("params", NEAR_SINGULAR, ids=["seed103", "1,2"])
def test_expm_near_singular_matches_reference(params):
    W = 60
    window = lattice_window(operator_build(params), W)
    columns = _unit_columns(W, [-4, 0, 4])
    for t in (0.5, 4.0):
        assert _same_bits(expm(window, columns, t), _reference_expm(window, columns, t)), t


def test_expm_scattered_rows_and_zero_columns():
    W = 50
    window = lattice_window(operator_build(DRAWS[7]), W)
    rng = np.random.default_rng(5)
    columns = np.zeros((2 * W + 1, 10))
    columns[[3, 17, 60], 0] = [1.0, -2.5, 0.25]
    columns[[W - 8, W + 8], 2] = rng.standard_normal(2)
    columns[:, 4] = rng.standard_normal(2 * W + 1)            # every row live
    columns[2 * W, 5] = 1.0                                    # the last row only
    columns[0, 6] = -1.0                                       # the first row only
    # columns 1, 3, 7, 8 and 9 are zero
    for t in (0.1, 1.0, 4.0):
        assert _same_bits(expm(window, columns, t), _reference_expm(window, columns, t)), t
        assert not expm(window, columns, t)[:, [1, 3, 7, 8, 9]].any()
    # a column-major copy sums its rows as the reference does
    fortran = np.asfortranarray(columns)
    assert _same_bits(expm(window, fortran, 1.0), _reference_expm(window, fortran, 1.0))


def test_expm_all_zero_columns():
    W = 20
    window = lattice_window(operator_build(DRAWS[1]), W)
    columns = np.zeros((2 * W + 1, 3))
    got = expm(window, columns, 2.0)
    assert _same_bits(got, _reference_expm(window, columns, 2.0))
    assert not got.any() and got is not columns


def test_kernel_eval_reads_edited_terms_of_a_hand_built_kernel():
    params = PARAMS[(1, 0)]
    f = KernelFormula(params=params, n=0, m=0, terms={0: Poly("t", [1])}, provenance={})
    first = kernel_eval(f, 1.5)
    f.terms[2] = Poly("t", [0, F(1, 3)])
    edited = kernel_eval(f, 1.5)
    fresh = KernelFormula(params=params, n=0, m=0, terms=dict(f.terms), provenance={})
    assert edited == kernel_eval(fresh, 1.5) != first


def test_kernel_eval_form_of_an_assembled_kernel():
    # the kept form (weights times the basis matrix) gives the values a
    # hand-built copy, whose terms are folded at each call, gives
    for n, m in ((2, 0), (0, 2), (-3, 1)):
        f = assemble_kernel(P33, n, m)
        copy = dataclasses.replace(f, terms=dict(f.terms))
        for t in (0.5, 3.0, 700.0, 1e6):
            assert kernel_eval(f, t) == kernel_eval(copy, t), (n, m, t)

