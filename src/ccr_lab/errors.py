"""Exception taxonomy shared by all ccr_lab modules, the four readers of
outside numbers, the float_range guard and the dense allocator that raise it,
the asymmetry residual of the symmetry checks, and call_outside.

Two exit-relevant base classes: ValidationError means the inputs violate a
documented precondition (CLI exit 2); NumericalCheckError means the inputs
were admissible but a numerical consistency check failed (CLI exit 3).
"""

import contextlib
import math
import operator

import numpy as np


class CcrLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CcrLabError):
    """Input violates a documented precondition or schema."""


class NumericalCheckError(CcrLabError):
    """A numerical consistency check failed on admissible input."""


def as_index(x, what):
    """x as an int through operator.index: floats such as 2.7 are refused,
    not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from None


def as_finite(x, what):
    """x as a finite float.  math.isfinite rather than numpy, as this runs
    once per constructed separation point; strings, complex numbers and ints
    too large for a float raise ValidationError."""
    try:
        if math.isfinite(x):
            return float(x)
    except (TypeError, OverflowError):
        pass
    raise ValidationError(f"{what} must be a finite real number, got {x!r}")


def as_finite_complex(x, what):
    """x as a complex whose modulus is a finite float: the one rule for a
    float-mode Python scalar, so that abs() of one never overflows.  Strings
    and non-numbers, numbers past the float range, and values whose parts
    are finite but whose modulus is not, such as complex(1.7e308, 1.7e308),
    raise ValidationError.  numpy arrays are read by parts instead
    (as_finite_array), as numpy takes their moduli under float_range."""
    try:
        if isinstance(x, str):
            raise TypeError
        z = complex(x)
        if abs(z) < math.inf:  # false for NaN; past the float range abs() raises
            return z
    except (TypeError, ValueError):
        raise ValidationError(f"{what} {x!r} is not a number") from None
    except OverflowError:
        pass
    raise ValidationError(f"{what} is not finite: its modulus is outside the float range")


def as_finite_array(values, what, dtype=float):
    """values as a float (or, with dtype=complex, complex) array of finite
    numbers, not copied if it is one; strings, ragged nesting, NaN or infinite
    entries and complex entries of a float array raise ValidationError."""
    kinds = "biufc" if dtype is complex else "biuf"
    try:
        v = np.asarray(values)
    except ValueError:  # ragged nesting
        v = None
    if v is None or v.dtype.kind not in kinds or not np.isfinite(v).all():
        raise ValidationError(f"{what} must be an array of finite numbers")
    return v.astype(dtype, copy=False)


@contextlib.contextmanager
def float_range(what):
    """Numpy overflow, division by zero and invalid values raise ValidationError,
    underflow aside, whatever the caller set; np.linalg, np.vdot and Python
    floats are not seen."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except FloatingPointError:
        raise ValidationError(f"{what} overflows the float range") from None


def dense_zeros(shape, what):
    """np.zeros(shape); a size numpy cannot hold is bad input and raises
    ValidationError."""
    try:
        return np.zeros(shape)
    except (ValueError, OverflowError, MemoryError):
        raise ValidationError(f"{what} is too large for a dense array") from None


def _largest_modulus(X):
    # max|X|; a real array is read by its max and min, with no abs temporary,
    # and the leading 0.0 keeps an all-zero reading unsigned
    if np.iscomplexobj(X):
        return float(np.abs(X).max(initial=0.0))
    return max(0.0, float(X.max(initial=0.0)), -float(X.min(initial=0.0)))


def asymmetry(M, image):
    """max|Q - image(Q)| / max|Q| for Q = M / 4, or 0 when Q is all zeros: how
    far a finite array is from equal to its image (transpose, flip, negation
    or gather), relative to its own largest entry.  Quartering is exact bar
    subnormals, so neither the difference nor a complex modulus can
    overflow."""
    Q = M / 4.0
    big = _largest_modulus(Q)
    return _largest_modulus(Q - image(Q)) / big if big else 0.0


def call_outside(what, f, *args):
    """f(*args) for a callable supplied from outside; its own failure, any
    exception but a CcrLabError, is bad input and raises ValidationError."""
    try:
        return f(*args)
    except CcrLabError:
        raise
    except Exception as exc:
        raise ValidationError(f"{what} fails: {exc!r}") from exc


# symbolic algebra

class ScalarModeMismatchError(ValidationError):
    """Exact-rational and floating scalars mixed in one computation."""


class InvalidSymmetryError(ValidationError):
    """Map neither preserves nor flips the pairing form within tolerance."""


class ArityError(ValidationError):
    """Probe count does not match the top degree of the element."""


# quasifree states

class IncompleteKernelError(ValidationError):
    """Two-point kernel has no entry for a requested index pair."""


class KernelInconsistencyError(NumericalCheckError):
    """Kernel violates the antisymmetric-part constraints (non-hermitian Gram)."""


# phase space

class InvalidCovarianceError(ValidationError):
    """Covariance/symplectic pair fails positivity or the norm bound."""


class InternalInconsistencyError(NumericalCheckError):
    """A result misses its own defining relation on validated input: the
    one_particle and intertwiner checks of phase_space, and
    lattice_propagator's window compression."""


class SpectrumNotGappedError(ValidationError):
    """Mode frequencies are not bounded away from zero."""


class TruncationInsufficientError(ValidationError):
    """Fock cutoff too small for the requested check."""


# lattice propagator

class CausalContaminationError(ValidationError):
    """Support's influence cone reaches the grid boundary."""


class InvalidSliceError(ValidationError):
    """Surface-form slice intersects a source support."""


class WindowTooThinError(ValidationError):
    """Compression window narrower than four time steps."""


# Minkowski kernels

class OnLightconeSingularError(ValidationError):
    """Two-point kernel requested exactly on the light cone at eps = 0."""


class QuadratureFailureError(NumericalCheckError):
    """Oscillatory quadrature did not converge; carries a residual estimate."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class OrderGuardError(ValidationError):
    """Parametrix order above the supported maximum."""


class TailTruncationError(NumericalCheckError):
    """Momentum profile does not decay inside the sampled window."""


# Wick / Hadamard ordering

class OrderingKernelInvalidError(ValidationError):
    """Ordering kernel's antisymmetric part disagrees with (i/2)E."""


class InvalidDifferenceError(ValidationError):
    """Difference kernel is not symmetric."""


class DegreeGuardError(ValidationError):
    """Operation requested above its documented degree guard."""


class ResolutionError(ValidationError):
    """Grid too coarse for the requested derivative accuracy."""
