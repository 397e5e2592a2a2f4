import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coupledpdc.fock as fock
from coupledpdc.decompose import extract_four_converter
from coupledpdc.device import ContinuousDevice, transfer_matrix
from coupledpdc.errors import (
    ERRORS,
    TruncationLeakageError,
    UndefinedCoherenceError,
)
from coupledpdc.fock import (
    FockBasis,
    build_generator,
    evolve,
    evolve_stack,
    fock_observables,
    pair_component,
)
from coupledpdc.moments import (
    CoherenceResult,
    coherence_of,
    intensities,
    signal_coherence,
)
from coupledpdc.whichway import pair_state

from oracles import (
    linear_search_bessel_series,
    loop_basis,
    loop_generator,
    loop_signal_cross,
    sector_mask,
)
from test_device import below_threshold_devices

FIG2 = dict(gamma1=0.1, gamma2=0.3, kappa=3.0)


@pytest.fixture(scope="module")
def basis4():
    return FockBasis.build(4)


def test_basis_size_and_bijection(basis4):
    assert basis4.size == 85
    occupations, _ = loop_basis(4)
    assert np.array_equal(basis4.occupations, np.array(occupations))
    for i, occ in enumerate(occupations):
        assert basis4.index_of(occ) == i
    assert np.array_equal(basis4.index_of(basis4.occupations),
                          np.arange(basis4.size))


def test_basis_rejects_tiny_cutoff():
    with pytest.raises(ValueError, match="n_max"):
        FockBasis.build(0)


def test_sector_size_matches_brute_force_count():
    for n_max in range(1, 13):
        assert fock.sector_size(n_max) == len(loop_basis(n_max)[0])
        assert FockBasis.build(n_max).size == fock.sector_size(n_max)


def test_basis_rejects_oversized_cutoff_before_allocating():
    # 987,734 states fit under the cap, 1,013,955 do not; n_max = 113 is
    # not built here, only the boundary arithmetic is checked
    assert fock.sector_size(113) == 987_734
    assert fock.sector_size(114) == 1_013_955
    assert fock.sector_size(113) <= fock.MAX_STATES < fock.sector_size(114)
    for n_max in (114, 1000, 10 ** 9):
        with pytest.raises(ValueError, match="basis states"):
            FockBasis.build(n_max)


def test_index_of_refuses_kets_outside_the_basis(basis4):
    # outside the sector, beyond the cutoff, and a beyond-cutoff ket whose
    # key equals that of the sector ket |0011>
    for ket in ((1, 0, 0, 0), (0, 1, 0, 1), (5, 5, 0, 0), (0, 0, 0, 6)):
        with pytest.raises(ValueError, match="not in the zero-charge basis"):
            basis4.index_of(ket)
    with pytest.raises(ValueError):
        basis4.index_of([(1, 1, 0, 0), (1, 0, 0, 0)])


def _block(g):
    """The coupling block ``B`` of a generator as a SciPy sparse array,
    without a copy."""
    b = g.to_odd
    return scipy.sparse.csr_array((b.data, b.indices, b.indptr),
                                  shape=(len(g.odd), len(g.even)))


def assembled(g):
    """The full generator ``[[0, B^T], [B, 0]]`` of :func:`build_generator`'s
    record ``g``, in basis order."""
    b = _block(g)
    halves = scipy.sparse.block_array([[None, b.T], [b, None]], format="csr")
    order = np.argsort(np.concatenate([g.even, g.odd]))
    return halves[order][:, order]


def sparse_generator(dev, basis):
    """:func:`build_generator`'s blocks assembled into one SciPy sparse
    array, for the matrix operations the tests read it with."""
    return assembled(build_generator(dev, basis))


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
def test_generator_equals_loop_reference(n_max):
    full = loop_generator(**FIG2, n_max=n_max)
    sector = sector_mask(n_max)
    # no term couples the sector to its complement
    assert not np.any(full[np.ix_(sector, ~sector)])
    assert not np.any(full[np.ix_(~sector, sector)])
    g = sparse_generator(ContinuousDevice(**FIG2, length=1.0),
                         FockBasis.build(n_max))
    assert np.array_equal(g.toarray(), full[np.ix_(sector, sector)])


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_generator_does_not_depend_on_the_build_block(rows, monkeypatch):
    # blocks of source states fill disjoint slots of one table; a seam
    # must neither drop nor move an entry
    dev = ContinuousDevice(-0.7, 1.3, -2.0, 0.0)
    basis = FockBasis.build(8)
    whole = build_generator(dev, basis)
    monkeypatch.setattr(fock, "BUILD_ROWS", rows)
    blocked = build_generator(dev, basis)
    for name in ("even", "odd"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name))
    for field in ("indptr", "indices", "data"):
        got = getattr(blocked.to_odd, field)
        want = getattr(whole.to_odd, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), field
    assert blocked.radius == whole.radius


def test_generator_zero_couplings():
    g = sparse_generator(ContinuousDevice(0, 0, 0, 1.0), FockBasis.build(2))
    assert g.nnz == 0
    sector = sector_mask(2)
    assert np.array_equal(g.toarray(), loop_generator(
        0, 0, 0, n_max=2)[np.ix_(sector, sector)])


def test_generator_pair_creation_amplitudes():
    basis = FockBasis.build(2)
    g = sparse_generator(ContinuousDevice(**FIG2, length=1.0), basis)
    vac = basis.index_of((0, 0, 0, 0))
    assert g[basis.index_of((1, 1, 0, 0)), vac] == pytest.approx(0.1)
    assert g[basis.index_of((0, 0, 1, 1)), vac] == pytest.approx(0.3)
    # the idler exchange annihilates the vacuum: pair creation is all
    assert g[:, vac].nnz == 2


def test_generator_is_hermitian(basis4):
    g = sparse_generator(ContinuousDevice(**FIG2, length=1.0), basis4)
    assert abs(g - g.conj().T).max() < 1e-12


def gershgorin(dense):
    """Largest absolute row sum of a dense matrix."""
    return np.abs(dense).sum(axis=1).max(initial=0.0)


def assert_radius_bounds(g, dense):
    """``max|eig(H)| <= radius <= Gershgorin (1 + margin)``."""
    spectral = np.max(np.abs(np.linalg.eigvalsh(dense)), initial=0.0)
    assert spectral <= g.radius
    assert g.radius <= gershgorin(dense) * (1.0 + fock.RADIUS_MARGIN)


@pytest.mark.parametrize("n_max", [4, 8, 12])
def test_generator_product_and_radius_match_scipy_sparse(n_max):
    basis = FockBasis.build(n_max)
    g = build_generator(ContinuousDevice(**FIG2, length=1.0), basis)
    b, h = g.to_odd, _block(g)
    rng = np.random.default_rng(0)
    # B and B^T, both wrapped without a copy: h.T is the CSC array on B's
    # own arrays, which SciPy multiplies with csc_matvec
    assert h.T.format == "csc"
    for transpose, matrix in ((False, h), (True, h.T)):
        for mine, scipys in zip((b.indptr, b.indices, b.data),
                                (matrix.indptr, matrix.indices, matrix.data)):
            assert np.shares_memory(mine, scipys)
        rows, cols = matrix.shape
        x = rng.standard_normal(cols)
        y = fock._matvec(b, b.data, x, np.empty(rows), transpose=transpose)
        # SciPy's product of the same arrays, bit for bit
        assert np.array_equal(y, matrix @ x)
        # its canonical CSR layout sums each row in column order instead
        canonical = matrix.tocsr(copy=True)
        canonical.sort_indices()
        assert np.max(np.abs(y - canonical @ x)) <= 1e-15 * np.max(np.abs(y))
    # no duplicate column within a row and no stored zero
    odd, even = h.shape
    r = np.repeat(np.arange(odd), np.diff(b.indptr))
    assert len(np.unique(r * even + b.indices)) == len(b.indices)
    assert np.all(b.data != 0.0)
    assert_radius_bounds(g, assembled(g).toarray())


def test_spectral_bound_is_within_five_percent_at_nmax8():
    # max|eig| is 37.153 here and Gershgorin's bound 50.90
    g = build_generator(ContinuousDevice(**FIG2, length=1.0),
                        FockBasis.build(8))
    assert g.radius <= 1.05 * 37.153


def assert_chiral(g, basis):
    """The halves are the even and odd states, and every entry of the
    block joins a state of the even half to one of the odd half."""
    p = (basis.occupations[:, 0] + basis.occupations[:, 3]) % 2
    assert np.array_equal(g.even, np.flatnonzero(p == 0))
    assert np.array_equal(g.odd, np.flatnonzero(p == 1))
    assert g.even[0] == 0
    b = g.to_odd
    assert len(b.indptr) == len(g.odd) + 1
    assert np.all(p[np.repeat(g.odd, np.diff(b.indptr))] == 1)
    assert np.all(p[g.even[b.indices]] == 0)


@pytest.mark.parametrize("n_max", range(1, 13))
def test_every_generator_entry_joins_even_to_odd(n_max):
    basis = FockBasis.build(n_max)
    g = build_generator(ContinuousDevice(**FIG2, length=1.0), basis)
    assert_chiral(g, basis)


# zero and negative couplings among any others
_coupling = st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                      st.floats(-3.0, 3.0))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_coupling, _coupling, _coupling, st.floats(0.0, 3.0))
@example(0.0, 0.0, 0.0, 1.0)
@example(0.0, 0.0, -2.0, 1.0)
@example(-0.1, 0.0, 0.0, 2.0)
# |B|^T |B| of these couplings overflows unless |B| is scaled first
@example(1e200, -1e199, 3e200, 0.0)
def test_chiral_split_and_spectral_bound_hold_for_any_couplings(
        gamma1, gamma2, kappa, length):
    basis = FockBasis.build(3)
    dev = ContinuousDevice(gamma1, gamma2, kappa, length)
    g = build_generator(dev, basis)
    assert_chiral(g, basis)
    sector = sector_mask(3)
    full = loop_generator(gamma1, gamma2, kappa, n_max=3)
    assert np.array_equal(assembled(g).toarray(), full[np.ix_(sector, sector)])
    assert_radius_bounds(g, full.real)
    if gamma1 == gamma2 == kappa == 0.0:
        assert g.radius == 0.0
        assert len(fock._bessel_series(g.radius * length)) == 1
    # the real part of an evolved state lies on the even half, the
    # imaginary part on the odd half, exactly
    psi = _evolve_any_leakage(dev, basis).amplitudes
    assert not np.any(psi.real[g.odd])
    assert not np.any(psi.imag[g.even])


def test_evolve_zero_length_is_vacuum(basis4):
    state = evolve(ContinuousDevice(**FIG2, length=0.0), basis4)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.leakage == 0.0


def test_evolve_single_squeezer_photon_number(basis4):
    state = evolve(ContinuousDevice(0.1, 0.0, 0.0, 1.0), basis4)
    b = fock.moments_stack([state]).b
    n_s1, n_i1, n_s2, n_i2 = (b[mode][0] for mode in ("s1", "i1", "s2", "i2"))
    assert n_s1 == pytest.approx(math.sinh(0.1) ** 2, abs=1e-6)
    assert n_i1 == pytest.approx(n_s1, abs=1e-12)
    assert n_s2 == 0 and n_i2 == 0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9


def test_evolve_reports_leakage_and_raises_when_truncated():
    # a strong plain squeezer overwhelms a cutoff of one photon per mode
    with pytest.raises(TruncationLeakageError):
        evolve(ContinuousDevice(0.5, 0.0, 0.0, 1.0), FockBasis.build(1))


def test_evolve_leakage_small_for_suppressed_device(basis4):
    state = evolve(ContinuousDevice(**FIG2, length=1.0), basis4)
    assert state.leakage < 1e-4


def _dense_reference(dev, n_max):
    """Vacuum column of the dense exponential of the full-basis reference,
    split into its sector and complement parts."""
    gen = loop_generator(dev.gamma1, dev.gamma2, dev.kappa, n_max=n_max)
    dense = scipy.linalg.expm(1j * gen * dev.length)[:, 0]
    sector = sector_mask(n_max)
    return dense[sector], dense[~sector]


@pytest.mark.parametrize("n_max", [3, 4])
def test_evolve_matches_dense_expm_of_reference(n_max):
    dev = ContinuousDevice(**FIG2, length=1.0)
    state = evolve(dev, FockBasis.build(n_max))
    inside, outside = _dense_reference(dev, n_max)
    assert np.max(np.abs(state.amplitudes - inside)) < 1e-13
    assert not np.any(outside)


def _evolve_any_leakage(dev, basis):
    """The evolved state of the truncated problem itself, for properties
    that compare its amplitudes: population on the cutoff boundary is no
    failure there, a norm off 1 still is."""
    states, failed = evolve_stack(build_generator(dev, basis), basis,
                                  np.array([dev.length]))
    assert ERRORS[failed[0]] in (None, TruncationLeakageError)
    return states[0]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(below_threshold_devices())
# rL of about 2e-211: a Bessel recurrence started at a fixed order above
# so small an argument overflows or indexes past its table
@example(ContinuousDevice(0.0, 0.0, -0.5, 1.2307150266689448e-211))
def test_sector_evolve_matches_full_basis_dense_expm(dev):
    state = _evolve_any_leakage(dev, FockBasis.build(3))
    inside, outside = _dense_reference(dev, 3)
    assert np.max(np.abs(state.amplitudes - inside)) < 1e-13
    assert not np.any(outside)


def test_evolve_calls_expm_multiply_once_through_the_module_name(
        basis4, monkeypatch, capsys):
    # bench/spans.py times the kernel and counts basis sizes by rebinding
    # these two names; a refactor that bypasses them would make its
    # per-layer figures read 0
    from coupledpdc import cli
    assert isinstance(FockBasis.__dict__["build"], classmethod)
    calls, builds = [], []
    kernel, build = fock.expm_multiply, fock.build_generator

    def counting(*args):
        calls.append(args[2])
        return kernel(*args)

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(fock, "expm_multiply", counting)
    monkeypatch.setattr(fock, "build_generator", counting_build)
    for length in (0.5, 1.0):
        evolve(ContinuousDevice(**FIG2, length=length), basis4)
    assert [list(lengths) for lengths in calls] == [[0.5], [1.0]]
    assert len(builds) == 2
    # an oracle-check builds the generator once and runs the kernel once
    # per block of lengths
    calls.clear()
    builds.clear()
    monkeypatch.setattr(cli, "ORACLE_BLOCK", 4)
    assert cli.main(["oracle-check", "--preset", "fig2", "--nmax", "3",
                     "--points", "0.1,0.2,0.3,0.4,0.5,0.6"]) == cli.EXIT_OK
    assert [list(lengths) for lengths in calls] == [[0.1, 0.2, 0.3, 0.4],
                                                    [0.5, 0.6]]
    assert len(builds) == 1
    assert capsys.readouterr().out.count("L=") == 6


def test_sparsetools_coexist_with_scipy_sparse_imported_later(child_env):
    # the package loads SciPy's compiled csr_matvec and csc_matvec
    # without importing scipy or scipy.sparse; scipy.sparse imported
    # afterwards must still carry its _sparsetools attribute, with the
    # same kernels
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import coupledpdc.fock as fock
        assert "scipy" not in sys.modules
        import scipy.sparse
        kernels = scipy.sparse._sparsetools
        assert kernels.csr_matvec is fock._csr_matvec
        assert kernels.csc_matvec is fock._csc_matvec
        g = fock.build_generator(fock.ContinuousDevice(0.1, 0.3, 3.0, 1.0),
                                 fock.FockBasis.build(4))
        b = g.to_odd
        x = np.linspace(-1.0, 1.0, len(g.even))
        y = np.linspace(-1.0, 1.0, len(g.odd))
        csr = scipy.sparse.csr_matrix((b.data, b.indices, b.indptr),
                                      shape=(len(g.odd), len(g.even)))
        assert np.array_equal(csr @ x, fock._matvec(b, b.data, x,
                                                    np.empty(len(g.odd))))
        assert np.array_equal(csr.T @ y, fock._matvec(
            b, b.data, y, np.empty(len(g.even)), transpose=True))
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_scipy_extension_loader_names_a_missing_module(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    monkeypatch.setattr(fock.importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools"
                                          r" not found in SciPy \d"):
        fock._load_matvecs()


def test_scipy_extension_loader_returns_both_kernels_of_one_module():
    # scipy.sparse is imported first here, so the loader returns the
    # kernels of its _sparsetools, the module SciPy's own products run
    kernels = scipy.sparse._sparsetools
    assert fock._load_matvecs() == (kernels.csr_matvec, kernels.csc_matvec)
    assert (fock._csr_matvec, fock._csc_matvec) == (kernels.csr_matvec,
                                                    kernels.csc_matvec)


def test_chebyshev_coefficients_match_bessel_functions():
    # the coefficients are (2 - delta_k0) J_k(x); scipy's jv itself is off
    # by up to 5.7e-15 at x = 300 (against mpmath at 40 digits), so the
    # comparison is on J_k
    for x in (1e-8, 0.5, 25.0, 100.0, 300.0):
        series = fock._bessel_series(x)
        k = np.arange(len(series))
        bessel = series / np.where(k == 0, 1.0, 2.0)
        assert np.max(np.abs(bessel - scipy.special.jv(k, x))) <= 1e-14
        # the series ends above x at the first coefficient under the floor
        assert len(series) > x
        assert 2 * abs(scipy.special.jv(len(series), x)) < fock.SERIES_FLOOR
        assert 2 * abs(scipy.special.jv(len(series) - 1, x)) \
            >= fock.SERIES_FLOOR / 2
    for x in (0.0, 1e-19, 1.8e-211):
        assert np.array_equal(fock._bessel_series(x), [1.0])
    for x in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="Chebyshev argument"):
            fock._bessel_series(x)


def test_bisected_start_order_gives_the_linear_search_series():
    # the start order is bisected; the series it starts must be the one
    # the former linear search started, bit for bit
    for x in np.geomspace(1e-18, 1e4, 2001).tolist():
        assert np.array_equal(fock._bessel_series(x),
                              linear_search_bessel_series(x)), x


def test_series_above_the_order_cap_is_refused_at_once():
    # the largest argument under the cap runs (about 2.4 s, so only its
    # check is run here); anything above it is refused before any table
    # is allocated or any order searched
    below = 2 * fock.MAX_ORDER / math.e
    fock._check_argument(below * (1 - 1e-12))
    for x in (below * (1 + 1e-12), 1e9, 1e300, sys.float_info.max):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"above order 1000000"):
                fock._bessel_series(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000


def test_chebyshev_coefficients_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (0.5, 25.0, 300.0):
        series = fock._bessel_series(x)
        want = [float((1 if k == 0 else 2) * mpmath.besselj(k, x))
                for k in range(len(series))]
        assert np.max(np.abs(series - want)) <= 1e-15


def test_evolve_zero_coupling_is_vacuum():
    # r = 0: the series is J_0(0) = 1 and no matrix-vector product runs
    state = evolve(ContinuousDevice(0.0, 0.0, 0.0, 5.0), FockBasis.build(3))
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_evolve_nmax8_matches_dense_expm():
    dev = ContinuousDevice(**FIG2, length=2.0)
    basis = FockBasis.build(8)
    dense = scipy.linalg.expm(
        1j * sparse_generator(dev, basis).toarray() * dev.length)[:, 0]
    state = evolve(dev, basis)
    assert np.max(np.abs(state.amplitudes - dense)) <= 1e-13


def test_evolve_stack_rows_equal_single_lengths():
    # at nmax 8 (halves of 249 and 240 states) the fig2 series have 1
    # (L = 0 and 1e-20), 3, 41, 81, 130 and 207 terms, so they end in the
    # folds 0, 0, 1, 2, 4 and 6 of 32 terms; the zero generator (radius 0)
    # gives one-term series only
    basis = FockBasis.build(8)
    assert fock._fold_width(249) == 32
    lengths = np.array([0.0, 2.0, 0.3, 1e-20, 3.7, 1e-9, 1.0])
    for couplings in (FIG2, dict(gamma1=0.0, gamma2=0.0, kappa=0.0)):
        generator = build_generator(
            ContinuousDevice(**couplings, length=0.0), basis)
        states, failed = evolve_stack(generator, basis, lengths)
        assert not failed.any()
        ms = fock.moments_stack(states)
        coherence, undefined = coherence_of(ms, ms.failed)
        for i, (length, state) in enumerate(zip(lengths, states)):
            alone = evolve(ContinuousDevice(**couplings, length=length),
                           basis)
            assert np.array_equal(state.amplitudes, alone.amplitudes)
            assert state.leakage == alone.leakage
            # the block's row equals the single-state observables, field
            # by field, also where the coherence is undefined
            one = fock.moments_stack([alone]).b
            for mode in ("s1", "i1", "s2", "i2"):
                assert one[mode][0] == ms.b[mode][i]
            if undefined[i]:
                with pytest.raises(UndefinedCoherenceError):
                    fock_observables(alone)
            else:
                assert fock_observables(alone).coherence == CoherenceResult(
                    coherence.gamma[i], coherence.imag_residue[i],
                    coherence.fragile[i])
    assert all(np.count_nonzero(s.amplitudes) == 1 for s in states)


def test_evolve_stack_memory_stays_within_the_fold_buffer():
    # 45,961 states in halves of 22,981 and 22,980: 22 terms per fold.
    # The per-term accumulation this fold replaced peaked at 7,677,844
    # traced bytes here (numpy 2.4), the four lengths' amplitudes
    # (2,941,504) included
    basis = FockBasis.build(40)
    assert fock._fold_width(22_981) == 22
    generator = build_generator(ContinuousDevice(**FIG2, length=0.0), basis)
    lengths = np.array([0.5, 1.0, 1.5, 2.0])
    tracemalloc.start()
    try:
        states, failed = evolve_stack(generator, basis, lengths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not failed.any()
    assert peak <= 7_677_844 + fock.FOLD_BYTES


def test_evolve_stack_amplitudes_do_not_depend_on_blas_threads(child_env):
    # the folds are BLAS vector-matrix products; at nmax 20 (6,181
    # states, folds of 32 terms) OpenBLAS splits them over its threads
    code = textwrap.dedent("""
        import hashlib
        import numpy as np
        from coupledpdc import fock
        from coupledpdc.device import ContinuousDevice
        for n_max in (8, 20):
            basis = fock.FockBasis.build(n_max)
            generator = fock.build_generator(
                ContinuousDevice(0.1, 0.3, 3.0, 0.0), basis)
            states, _ = fock.evolve_stack(
                generator, basis, np.array([0.5, 1.0, 1.5, 2.0]))
            amplitudes = np.array([s.amplitudes for s in states])
            print(hashlib.sha256(amplitudes.tobytes()).hexdigest())
    """)
    outputs = []
    for threads in ("1", None):
        env = {key: value for key, value in child_env.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1]


def test_evolve_stack_records_leakage_per_length():
    basis = FockBasis.build(1)
    dev = ContinuousDevice(0.5, 0.0, 0.0, 0.0)
    states, failed = evolve_stack(build_generator(dev, basis), basis,
                                  np.array([0.01, 1.0, 0.02]))
    assert failed[0] == failed[2] == 0
    assert ERRORS[failed[1]] is TruncationLeakageError
    assert states[1].leakage > 1e-4


@pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
def test_signal_cross_term_matches_loop_reference(basis4, length):
    state = evolve(ContinuousDevice(**FIG2, length=length), basis4)
    b = fock.moments_stack([state]).b
    n_s1, n_s2 = b["s1"][0], b["s2"][0]
    value = -1j * loop_signal_cross(state.amplitudes, 4) / math.sqrt(
        n_s1 * n_s2)
    coherence = fock_observables(state).coherence
    assert coherence.gamma == pytest.approx(value.real, rel=1e-15)
    assert coherence.imag_residue == pytest.approx(
        abs(value.imag), rel=1e-15, abs=1e-30)


def test_observables_vacuum_coherence_undefined(basis4):
    state = evolve(ContinuousDevice(**FIG2, length=0.0), basis4)
    with pytest.raises(UndefinedCoherenceError):
        fock_observables(state)


def test_observables_symmetric_device_zero_coherence(basis4):
    state = evolve(ContinuousDevice(0.2, 0.2, 3.0, 1.0), basis4)
    assert abs(fock_observables(state).coherence.gamma) <= 1e-6


@pytest.mark.parametrize("length", [0.5, 1.0, 1.5, 2.0])
def test_number_basis_agrees_with_transfer_matrix(basis4, length):
    dev = ContinuousDevice(**FIG2, length=length)
    state = evolve(dev, basis4)
    obs = fock_observables(state)
    tm = transfer_matrix(dev)
    inten = intensities(tm)
    assert obs.n_s1 == pytest.approx(inten.s1, abs=1e-3)
    assert obs.n_s2 == pytest.approx(inten.s2, abs=1e-3)
    assert obs.n_i1 == pytest.approx(inten.i1, abs=1e-3)
    assert obs.n_i2 == pytest.approx(inten.i2, abs=1e-3)
    assert obs.coherence.gamma == pytest.approx(
        signal_coherence(tm).gamma, abs=1e-3)


def test_higher_cutoff_tightens_agreement():
    dev = ContinuousDevice(**FIG2, length=1.0)
    tm = transfer_matrix(dev)
    want = signal_coherence(tm).gamma
    coarse = fock_observables(evolve(dev, FockBasis.build(4))).coherence.gamma
    fine = fock_observables(evolve(dev, FockBasis.build(6))).coherence.gamma
    assert abs(fine - want) <= 1e-5
    assert abs(fine - want) < abs(coarse - want)


def test_short_length_state_matches_extracted_pair(basis4):
    dev = ContinuousDevice(**FIG2, length=0.1)
    component = pair_component(evolve(dev, basis4))
    scheme = extract_four_converter(transfer_matrix(dev)).scheme
    ps = pair_state(scheme)
    reference = np.array([ps.c_1001, ps.c_0110, ps.c_1100, ps.c_0011])
    overlap = abs(np.vdot(reference, component)) / (
        np.linalg.norm(reference) * np.linalg.norm(component))
    assert overlap >= 0.999


def test_oracle_check_runs_half_size_products_only(monkeypatch):
    # fig2 at nmax 8, halves of 249 and 240 states: the four default
    # lengths take 129 products for the longest series and the spectral
    # bound 4 (158 full-size products with Gershgorin's bound); products
    # with B fill the odd half, products with B^T the even half
    from coupledpdc import cli
    rows = {}

    def counting(name):
        kernel = getattr(fock, name)

        def count(n_row, *args):
            rows.setdefault(name, []).append(n_row)
            return kernel(n_row, *args)
        return count

    for name in ("_csr_matvec", "_csc_matvec"):
        monkeypatch.setattr(fock, name, counting(name))
    assert cli.main(["oracle-check", "--preset", "fig2",
                     "--nmax", "8"]) == cli.EXIT_OK
    assert set(rows["_csr_matvec"]) == {240}
    assert set(rows["_csc_matvec"]) == {249}
    assert len(rows["_csr_matvec"]) + len(rows["_csc_matvec"]) <= 140
