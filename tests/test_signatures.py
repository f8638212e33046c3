"""Every numerical check has one fixed bound and every size guard one fixed
value: no public entry takes a tolerance a caller could loosen, nor a
max_n that lifts a guard.  The parameters that have a default are pinned as
well, so that a new option is added on purpose, with this list.  numpy's
error state is set in one place, the float_range guard, and a float Python
scalar is read for finiteness in one place, errors.as_finite_complex, or
errors.as_finite for a real one; the pairing sum over sets of free slots is
written once, and so is the test of a pair's q-p split; a lattice march is
bounded by the edge of its array; these are tested here too."""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import ccr_lab
from ccr_lab import lattice_propagator, phase_space
from ccr_lab.errors import ValidationError, float_range
from ccr_lab.phase_space import purity

ALLOWED = set()

DEFAULTED = {
    ("AlgebraElement", "mode"),
    ("AlgebraElement", "terms"),
    ("AlgebraElement.from_vector", "mode"),
    ("AlgebraElement.generator", "mode"),
    ("DifferenceKernel", "mode"),
    ("ExactComplex", "im"),
    ("ExactComplex", "re"),
    ("KernelParams", "eps"),
    ("KernelParams", "lam"),
    ("KernelParams", "m"),
    ("KernelParams", "order"),
    ("LatticeConfig", "boundary"),
    ("NormalOrderedElement", "mode"),
    ("NormalOrderedElement", "terms"),
    ("NormalOrderedElement.monomial", "coefficient"),
    ("NormalOrderedElement.monomial", "mode"),
    ("PairingForm", "entries"),
    ("TwoPointKernel", "generators"),
    ("TwoPointKernel", "pairing"),
    ("WickTensor", "mode"),
    ("element_from_text", "mode"),
    ("equivalence_probe", "tau"),
    ("equivalence_probe", "truncations"),
    ("fundamental", "which"),
    ("ground_state_mu", "tau"),
    ("pair_E", "method"),
    ("pair_E", "slice_index"),
    ("phi2_H_expectation", "perturbation"),
    ("phi2_H_expectation", "x"),
    ("stress_energy", "step"),
    ("stress_energy", "xi"),
    ("word_tensor", "mode"),
}


def _is_override(name):
    return name in ("tol", "max_n") or name.endswith("_tol") or name.startswith("tol_")


def _public_callables():
    for info in pkgutil.iter_modules(ccr_lab.__path__):
        module = importlib.import_module(f"ccr_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield name, obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member
            elif callable(obj):
                yield name, obj


def _parameters():
    seen = dict(_public_callables())
    assert "validate_mu_tau" in seen and "TwoPointKernel" in seen
    return {
        (where, name): param
        for where, obj in seen.items()
        for name, param in inspect.signature(obj).parameters.items()
    }


def test_public_signatures_take_no_tolerance():
    params = set(_parameters())
    assert ALLOWED <= params
    assert sorted(p for p in params - ALLOWED if _is_override(p[1])) == []


def test_defaulted_parameters_are_listed():
    defaulted = {
        key for key, param in _parameters().items()
        if param.default is not inspect.Parameter.empty
    }
    assert sorted(defaulted) == sorted(DEFAULTED)


def test_numpy_error_state_is_set_only_by_the_float_range_guard():
    src = pathlib.Path(ccr_lab.__file__).parent
    sites = {p.name: p.read_text().count("np.errstate") for p in sorted(src.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"errors.py": 1}


def _source_texts():
    src = pathlib.Path(ccr_lab.__file__).parent
    return {p.name: p.read_text() for p in sorted(src.glob("*.py"))}


def test_a_float_scalar_is_read_for_finiteness_in_one_place():
    # cmath.isfinite tests the parts, not the modulus.  The reader takes the
    # modulus with abs(), which raises past the float range; hypot, which
    # returns inf there, reads one modulus only: that of a difference of two
    # read values in OrderingKernel, which lives in ccr_core
    texts = _source_texts()
    def files_with(needle):
        return [name for name, text in texts.items() if needle in text]

    assert files_with("cmath.isfinite") == files_with("def _finite(") == []
    assert files_with("def as_finite_complex(") == ["errors.py"]
    moduli = re.compile(r"math\.hypot\((\w+)\.real, \1\.imag\)")
    sites = {name: moduli.findall(text) for name, text in texts.items()}
    assert {name: found for name, found in sites.items() if found} == {
        "ccr_core.py": ["delta"]
    }


def test_one_pairing_recursion():
    # quasifree._pairing_sum walks the sets of free slots for a single
    # moment and for a block of moments alike; its lowest-slot step is the
    # one in src/
    sites = {name: text.count("free & -free") for name, text in _source_texts().items()}
    assert {name: n for name, n in sites.items() if n} == {"quasifree.py": 1}


def test_the_pair_bound_is_decided_in_one_place():
    # phase_space._frame admits every covariance pair: its Cholesky probe of
    # (1 + 1e-9)^2 I - Jt^T Jt is the one test of ||J||_mu <= 1 + 1e-9, and
    # no entry keeps a bound check of its own
    texts = _source_texts()
    for gone in ("_bounded_frame", "_cholesky_pd", "_check_bound"):
        assert [name for name, text in texts.items() if gone in text] == []
    sites = {name: text.count("(1.0 + 1e-9) ** 2") for name, text in texts.items()}
    assert {name: n for name, n in sites.items() if n} == {"phase_space.py": 1}


def test_the_qp_split_is_decided_in_one_place():
    # phase_space._parts decides for _frame and ground_state_mu alike whether
    # a pair runs in its q and p halves: its test of T's two diagonal blocks
    # is the one in src/, and ground_state_mu keeps no predicate of its own
    sites = {name: text.count("T[q, q].any() or T[p, p].any()")
             for name, text in _source_texts().items()}
    assert {name: n for name, n in sites.items() if n} == {"phase_space.py": 1}
    for entry, call in ((phase_space.ground_state_mu, '_parts(A, T, "energy form")'),
                        (phase_space._frame, "_parts(mu, tau, what)")):
        source = inspect.getsource(entry)
        assert call in source and ".any()" not in source


def test_the_frame_is_held_in_its_blocks():
    # _frame keeps a q-p split pair's frame in its N x N blocks and joins
    # none of them into a 2N x 2N matrix, and the symmetry checks read the
    # blocks that _parts has decided
    assert "_join(" not in inspect.getsource(phase_space._frame)
    for entry in (phase_space._frame, phase_space.ground_state_mu):
        source = inspect.getsource(entry)
        assert -1 < source.find("_parts(") < source.find("_check_square_pair(")


def test_purity_reads_one_spectrum():
    # purity's verdict is one reading of the pair's spectrum,
    # CovariancePair.spectrum, phase_space's one eigvalsh of G, which mu_norm
    # shares: phase_space solves no linear system and keeps no second purity
    # test to agree with
    text = _source_texts()["phase_space.py"]
    assert "np.linalg.solve" not in text and "purity checks disagree" not in text
    pair = phase_space.CovariancePair
    assert text.count("eigvalsh(Gk)") == 1
    assert "eigvalsh(Gk) for Gk in self.G" in inspect.getsource(pair.spectrum.func)
    for reader in (pair.purity, pair.mu_norm):
        assert "self.spectrum" in inspect.getsource(reader.func)
    assert "_frame(mu, tau).purity" in inspect.getsource(phase_space.purity)


def test_a_march_is_bounded_by_the_edge_of_its_array():
    # the array a lattice march runs in is its range: rows lo..hi of the
    # grid are an array of hi - lo + 1 rows, and no march, solution or
    # wave operator takes a stop row, a row count or a start row besides
    for entry in (lattice_propagator._march, lattice_propagator._solution,
                  lattice_propagator._kg):
        params = set(inspect.signature(entry).parameters)
        assert params & {"stop", "n_rows", "start"} == set()
    assert "rows" in inspect.signature(lattice_propagator._solution).parameters


def test_a_real_scalar_is_read_for_finiteness_in_one_place():
    # errors.as_finite is the one reader of a finite real; the other
    # math.isfinite tests SeparationPoint's sigma, a value computed from two
    # read ones, and numbers.Real no longer stands in for a reader
    texts = _source_texts()
    assert [name for name, text in texts.items() if "def as_finite(" in text] == ["errors.py"]
    assert [name for name, text in texts.items() if "numbers.Real" in text] == []
    sites = {name: text.count("math.isfinite(") for name, text in texts.items()}
    assert {name: n for name, n in sites.items() if n} == {
        "errors.py": 1, "minkowski_kernel.py": 1
    }


def test_float_range_refuses_overflow_whatever_the_caller_set():
    big = np.array([1e200])
    with pytest.raises(ValidationError, match="^product overflows the float range$"):
        with float_range("product"):
            big * big
    # a caller's own error state does not switch the guard off
    with np.errstate(all="ignore"), pytest.raises(ValidationError):
        with float_range("product"):
            big * big
    # underflow to zero or to a subnormal is not refused
    small = np.array([1e-300])
    with float_range("product"):
        assert (small * 1e-100)[0] == 0.0
        assert 0.0 < (small * 1e-10)[0] < 2.3e-308
    assert purity(1e-320 * np.eye(2), np.zeros((2, 2))).verdict == "mixed"
