import dataclasses
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledpdc.config import TOL, Tolerances
from coupledpdc.device import (
    ContinuousDevice,
    build_hamiltonian,
    expm,
    stack_failures,
    transfer_matrix,
)
from coupledpdc.errors import ERRORS, NonFiniteMatrixError, PdcModelError
from coupledpdc.linalg import atan2, atanh, cosh, sinh
from coupledpdc.moments import square

from oracles import mpmath_transfer_matrix, taylor_expm

EPS = 2.2e-16
UNIT = st.floats(min_value=-1.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False)


def _generator(g1, g2, kappa, length=1.0) -> np.ndarray:
    return 1j * build_hamiltonian(ContinuousDevice(g1, g2, kappa, 0.0)) \
        * length


def _generators(max_norm: float):
    """Random device generators ``i H L`` with 2-norm at most
    ``max_norm``."""

    def build(g1, g2, kappa):
        a = _generator(g1, g2, kappa)
        norm = np.linalg.norm(a, 2)
        return a * (max_norm / norm) if norm > max_norm else a

    return st.builds(build, UNIT, UNIT, UNIT)


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))


def test_expm_squeezer_block_closed_form():
    # only the first converter on: the (s1, i1) block is the
    # single-squeezer cosh/sinh form
    g, length = 0.1, 1.0
    out = expm(_generator(g, 0.0, 0.0, length))
    assert out[0, 0] == pytest.approx(1.0050041680558035, abs=1e-14)
    assert abs(out[0, 2]) == pytest.approx(0.10016675001984403, abs=1e-14)
    assert np.allclose(out, taylor_expm(_generator(g, 0.0, 0.0, length)),
                       atol=1e-15)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_generators(2.0))
def test_expm_matches_series_oracle(a):
    got = expm(a)
    want = taylor_expm(a)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_generators(1.0))
def test_expm_inverse_identity(a):
    assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(4))) <= 1e-10


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_generators(1.0))
def test_expm_respects_adjoint(a):
    # (i H L)^H is the generator of the device with kappa negated
    assert np.max(np.abs(expm(a.conj().T) - expm(a).conj().T)) <= 1e-12


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_generators(1.0))
def test_expm_scaling_consistency(a):
    half = expm(a / 2)
    assert np.max(np.abs(expm(a) - half @ half)) <= 1e-10


def test_expm_accuracy_at_large_norm():
    # generators of 2-norm 50 below, at and above threshold, against
    # mpmath: the largest entry error relative to max|M| stays within
    # 64 eps max(1, rho L), rho the spectral radius of H
    rng = np.random.default_rng(7)
    for g1, g2 in rng.uniform(-1.0, 1.0, (6, 2)):
        for kappa in (abs(g1) + abs(g2) + 0.5, abs(g1) + abs(g2),
                      0.5 * (abs(g1) + abs(g2))):
            h = build_hamiltonian(ContinuousDevice(g1, g2, kappa, 0.0))
            a = 1j * h * (50.0 / np.linalg.norm(h, 2))
            x1, x2, y = a[0, 2].imag, a[1, 3].imag, -a[2, 3].imag
            want = mpmath_transfer_matrix(x1, x2, y, 1.0)
            rho = max(abs(np.linalg.eigvals(a)))
            err = np.max(np.abs(expm(a) - want)) / np.max(np.abs(want))
            assert err <= 64 * EPS * max(1.0, rho), (g1, g2, kappa, err)


def test_expm_rejects_non_square():
    with pytest.raises(ValueError, match="4x4"):
        expm(np.zeros((2, 3)))


def test_expm_rejects_non_finite():
    bad = _generator(0.1, 0.3, 3.0)
    bad[0, 2] = bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        expm(bad)


def test_expm_refuses_matrices_outside_the_device_family():
    good = _generator(0.1, 0.3, 3.0, 2.0)
    assert np.isfinite(expm(good)).all()
    for i, j, value in [(0, 0, 1j), (0, 2, 0.3 + 0.2j), (2, 0, 0.2j),
                        (3, 2, 1j), (0, 1, 1e-300j), (1, 3, 1.0)]:
        bad = good.copy()
        bad[i, j] = value
        with pytest.raises(ValueError, match="continuous device"):
            expm(bad)
        with pytest.raises(ValueError, match="continuous device"):
            expm(np.stack([good, bad]))


def test_an_overflowed_generator_gives_a_non_finite_matrix():
    # g1 L = inf: the generator is still of the device family, and its
    # exponential is reported by the matrix checks, not refused by expm
    with np.errstate(over="ignore", invalid="ignore"):
        a = _generator(1e308, 0.3, 3.0, 10.0)
        # 1j times the same entries has NaN real parts: not a generator
        nan_real = 1j * a.imag
    assert np.isinf(a.imag).any() and not a.real.any()
    m = expm(a[None])
    assert not np.isfinite(m).all()
    assert ERRORS[stack_failures(m)[0]] is NonFiniteMatrixError
    with pytest.raises(ValueError, match="continuous device"):
        expm(nan_real)


def test_expm_overflow_is_a_model_error():
    # far above threshold exp(iHL) overflows; sweeps tag such a row
    # instead of aborting, so the failure must be a domain error
    with pytest.raises(NonFiniteMatrixError, match="non-finite") as info:
        transfer_matrix(ContinuousDevice(1.0, 1.0, 0.5, 800.0))
    assert isinstance(info.value, PdcModelError)


@pytest.mark.parametrize("gamma1, gamma2, kappa, start, stop, steps", [
    # the length sweeps of tests/test_golden.py over their CLI ranges
    (0.1, 0.3, 3.0, 0.01, 20.0, 2000),
    (1.0, 1.0, 0.5, 0.01, 30.0, 50),
    (1.0, 1.0, 0.5, 0.01, 400.0, 50),
    (0.5, 1.0, 1.5, 0.01, 1000.0, 50),
    (0.1, 0.0, 3.0, 0.0, 20.0, 50),
    # far above threshold, up to where exp(iHL) itself overflows
    (1.0, 1.0, 0.5, 0.01, 800.0, 200),
])
def test_expm_stack_rows_equal_single_matrices(gamma1, gamma2, kappa,
                                               start, stop, steps):
    h = build_hamiltonian(ContinuousDevice(gamma1, gamma2, kappa, 0.0))
    stack = 1j * h * np.linspace(start, stop, steps)[:, None, None]
    got = expm(stack)
    assert np.array_equal(expm(stack[None])[0], got, equal_nan=True)
    for i, a in enumerate(stack):
        assert np.array_equal(expm(a), got[i], equal_nan=True), i
        assert np.array_equal(expm(a[None])[0], got[i], equal_nan=True), i
    assert np.isfinite(got).all() == (stop != 800.0)  # only the last sweep


def test_tolerances_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOL.symplectic = 1.0  # type: ignore[misc]
    assert isinstance(TOL, Tolerances)


def test_no_function_or_record_takes_a_threshold_override():
    # every check reads its module's TOL; a `tol` parameter or field
    # would bring back a second way to set a threshold
    import coupledpdc
    from coupledpdc import (cli, config, decompose, device, errors, fock,
                            linalg, moments, whichway)
    modules = (config, device, linalg, moments, decompose, whichway, fock,
               errors, cli)
    objects = [getattr(coupledpdc, name) for name in coupledpdc.__all__]
    objects += [getattr(module, name) for module in modules
                for name in dir(module) if name.endswith("_stack")]
    objects += [obj for module in modules for obj in vars(module).values()
                if getattr(obj, "__module__", None) == module.__name__]
    assert any(getattr(obj, "__name__", "") == "evolve_stack"
               for obj in objects)
    for obj in objects:
        if dataclasses.is_dataclass(obj):
            names = [f.name for f in dataclasses.fields(obj)]
        elif inspect.isfunction(obj):
            names = list(inspect.signature(obj).parameters)
        else:
            continue
        assert "tol" not in names, obj.__qualname__
    for record in (device.TransferMatrix, cli.SweepConfig):
        assert "tol" not in [f.name for f in dataclasses.fields(record)]


def test_each_failure_is_one_code_and_every_record_holds_codes():
    # one table owns the codes: each error class is one row with its own
    # tag, a batch of one raises the class of its code, and every batched
    # check records uint8 codes, never exception objects
    from coupledpdc import decompose, errors, fock, moments, whichway
    from coupledpdc.device import transfer_stack
    classes = [getattr(errors, name) for name in errors.__all__]
    classes = [c for c in classes if c is not PdcModelError]
    classes.append(errors._NormDriftError)  # the number-basis norm check
    assert issubclass(errors._NormDriftError, ArithmeticError)
    assert ERRORS[0] is None and len(ERRORS) == len(classes) + 1
    assert [ERRORS.count(c) for c in classes] == [1] * len(classes)
    tags = [c.tag for c in classes]
    assert all(tags) and len(set(tags)) == len(tags)
    errors.raise_first(errors.no_failures(1))
    for code, error in enumerate(ERRORS[1:], 1):
        record = errors.no_failures(1)
        errors.flag(record, np.ones(1, dtype=bool), error)
        assert record[0] == code
        with pytest.raises(error) as info:
            errors.raise_first(record)
        assert type(info.value) is error and str(info.value) == error.message

    basis = fock.FockBasis.build(2)
    generator = fock.build_generator(ContinuousDevice(1.0, 1.0, 2.5, 0.0),
                                     basis)
    states, evolved = fock.evolve_stack(generator, basis,
                                        np.array([0.05, 3.0, 1.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = transfer_stack(ContinuousDevice(1.0, 1.0, 0.5, 0.0),
                           np.array([0.0, 1.0, 30.0, 800.0]))
        ms = moments.vacuum_moments(m)
        zou = decompose.four_converter_stack(m, ms, ms.failed)
        records = {
            "stack_failures": stack_failures(m),
            "vacuum_moments": ms.failed,
            "coherence_of": moments.coherence_of(ms, ms.failed)[1],
            "four_converter_stack": zou.failed,
            "interferometer_stack": decompose.interferometer_stack(
                m, ms, ms.failed).failed,
            "geometry_stack": whichway.geometry_stack(
                *(zou.params[g] for g in ("g1", "g2", "g4", "g5")))[1],
            "evolve_stack": evolved,
            "moments_stack": fock.moments_stack(states).failed,
        }
    for name, record in records.items():
        assert record.dtype == np.uint8 and record.shape == (4,), name
    assert records["stack_failures"][-1] == ERRORS.index(NonFiniteMatrixError)
    assert ERRORS[evolved[1]].tag == "leakage"


def test_each_exported_name_is_listed_once_in_one_module():
    # the package re-exports its modules' __all__: each name is declared
    # in one list, and a star import brings in nothing else (np, Callable,
    # flag)
    import coupledpdc
    lists = {}
    for info in pkgutil.iter_modules(coupledpdc.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"coupledpdc.{info.name}")
            lists[module] = getattr(module, "__all__", [])
    for name in coupledpdc.__all__:
        owners = [module for module, names in lists.items() if name in names]
        assert len(owners) == 1, (name, owners)
        assert lists[owners[0]].count(name) == 1, name
        assert getattr(coupledpdc, name) is getattr(owners[0], name)
    public = {name for name in vars(coupledpdc) if not name.startswith("_")}
    submodules = {module.__name__.rpartition(".")[2] for module in lists}
    assert public - submodules == set(coupledpdc.__all__)


def test_the_package_imports_its_modules_on_first_use(child_env):
    # `import coupledpdc` loads no module of the package; a star import
    # binds the exports of all of them, and nothing else public
    code = textwrap.dedent("""
        import sys
        import coupledpdc
        print(sorted(m for m in sys.modules if m.startswith("coupledpdc.")))
        namespace = {}
        exec("from coupledpdc import *", namespace)
        del namespace["__builtins__"]
        names = coupledpdc.__all__
        assert sorted(namespace) == sorted(names) and len(names) == 52
        for name in names:
            (owner,) = [module for key, module in list(sys.modules.items())
                        if key.startswith("coupledpdc.")
                        and name in getattr(module, "__all__", ())]
            assert namespace[name] is getattr(owner, name), name
        assert coupledpdc.evolve is coupledpdc.fock.evolve
        print(sorted(name for name in vars(coupledpdc)
                     if not name.startswith("_") and name not in names))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['config', 'decompose', 'device', 'errors', 'fock', "
        "'linalg', 'moments', 'whichway']"]


# ---------------------------------------------------------------------------
# the element-wise helpers of the batched engine, rounded as ``math`` rounds

SAMPLE = 100_000


def _math_of(fn, *args) -> np.ndarray:
    """``fn`` of :mod:`math` on each element of the broadcast ``args``."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    values = [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in args))]
    return np.array(values, dtype=float).reshape(args[0].shape)


def _assert_bits(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_square_is_math_pow_bit_for_bit():
    rng = np.random.default_rng(20)
    x = rng.uniform(1.0, 10.0, SAMPLE) * 10.0 ** rng.uniform(-150, 150, SAMPLE)
    want = _math_of(lambda v: math.pow(v, 2.0), x)
    # a square by multiplication (numpy's array power) misses these
    assert np.count_nonzero(x * x != want) > 0
    _assert_bits(square(x), want)
    _assert_bits(square(-x), want)


def test_square_edges():
    with np.errstate(over="ignore"):
        # at or above 1e300 (where math.pow would raise on overflow)
        big = np.array([1e151, 1e154, 2e154, 1e300, -1e200])
        _assert_bits(square(big), big * big)
        x = np.array([[9.99e149, 1e200], [np.inf, 0.3]])
        got = square(x)
    _assert_bits(got, np.array([[math.pow(9.99e149, 2.0), np.inf],
                                [np.inf, math.pow(0.3, 2.0)]]))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-170, 5e-324])
    _assert_bits(square(special), special * special)
    _assert_bits(square(np.array(3.0)), np.array(9.0))
    _assert_bits(square(np.array(np.nan)), np.array(np.nan))
    _assert_bits(square(np.zeros(0)), np.zeros(0))
    _assert_bits(square(np.zeros((0, 4, 2))), np.zeros((0, 4, 2)))


@pytest.mark.parametrize("helper, fn, numpy_fn, low, high", [
    (atanh, math.atanh, np.arctanh, -1.0, 1.0),
    (cosh, math.cosh, np.cosh, -30.0, 30.0),
    (sinh, math.sinh, np.sinh, -30.0, 30.0),
], ids=["atanh", "cosh", "sinh"])
def test_one_argument_helpers_are_math_bit_for_bit(helper, fn, numpy_fn,
                                                   low, high):
    rng = np.random.default_rng(21)
    x = rng.uniform(low, high, SAMPLE)
    want = _math_of(fn, x)
    # numpy's own loop misses these
    assert np.count_nonzero(numpy_fn(x) != want) > 0
    _assert_bits(helper(x), want)
    edges = np.array([0.0, -0.0, np.nan, 1e-300, -1e-300, 0.5])
    _assert_bits(helper(edges), _math_of(fn, edges))
    _assert_bits(helper(np.array(0.25)), np.array(fn(0.25)))
    _assert_bits(helper(np.zeros(0)), np.zeros(0))


def test_atanh_near_the_edge_of_its_domain():
    x = 1.0 - 10.0 ** -np.arange(1.0, 16.0)
    _assert_bits(atanh(x), _math_of(math.atanh, x))
    _assert_bits(atanh(-x), _math_of(math.atanh, -x))


def test_cosh_and_sinh_at_large_and_infinite_arguments():
    x = np.array([700.0, -700.0, np.inf, -np.inf])
    _assert_bits(cosh(x), _math_of(math.cosh, x))
    _assert_bits(sinh(x), _math_of(math.sinh, x))


def test_atan2_is_math_bit_for_bit_and_broadcasts():
    rng = np.random.default_rng(22)
    y, x = rng.standard_normal(SAMPLE), rng.standard_normal(SAMPLE)
    want = _math_of(math.atan2, y, x)
    assert np.count_nonzero(np.arctan2(y, x) != want) > 0
    _assert_bits(atan2(y, x), want)
    # broadcasting: a column against a row, and an array against a scalar
    col, row = y[:7, None], x[:5]
    _assert_bits(atan2(col, row), _math_of(math.atan2, col, row))
    _assert_bits(atan2(y[:9], -1.5), _math_of(math.atan2, y[:9], -1.5))
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    _assert_bits(atan2(edges[:, None], edges),
                 _math_of(math.atan2, edges[:, None], edges))
    _assert_bits(atan2(np.array(1.0), np.array(-1.0)),
                 np.array(math.atan2(1.0, -1.0)))
    _assert_bits(atan2(np.zeros(0), np.zeros(0)), np.zeros(0))
