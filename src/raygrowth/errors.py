"""Exception hierarchy shared across the package, the argument checks that
raise its :class:`DomainError`, and :func:`scalar_or_array`, the one rule
for the shape of a result."""

import math

import numpy as np


class RayGrowthError(Exception):
    """Base class for all raygrowth errors."""


class DomainError(RayGrowthError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class ConvergenceError(RayGrowthError, ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class StripViolationError(DomainError):
    """Transform evaluated outside its declared strip of convergence."""


class ExceptionalAngleError(DomainError):
    """Angle falls on (or within the guard band of) an exceptional root."""


class CountMismatchError(RayGrowthError):
    """Root scan found a different number of zeros than predicted."""


class OutOfRangeError(DomainError):
    """Target value outside the attainable range of a monotone map.

    Carries the numerically determined admissible interval.
    """

    def __init__(self, message, lo=None, hi=None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class ParseError(RayGrowthError, ValueError):
    """Malformed declarative input (mass-model file or config file)."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# text of the interval ends that are named rather than printed
_BOUND_TEXT = {math.pi: "pi", math.pi / 2: "pi/2", math.pi - 0.5: "pi-0.5", math.e: "e"}
_FLOAT_MAX = float(np.finfo(float).max)


def _bound(v) -> str:
    text = _BOUND_TEXT.get(v, repr(float(v)))
    return text[:-2] if text.endswith(".0") else text


def _interval_text(lo, hi, closed) -> str:
    if lo == -math.inf and hi == math.inf:
        return "must be finite"
    if hi == math.inf:
        if lo == 0.0 and closed[0] == "(":
            return "must be positive and finite"
        return f"must be {'>' if closed[0] == '(' else '>='} {_bound(lo)} and finite"
    return f"must lie in {closed[0]}{_bound(lo)}, {_bound(hi)}{closed[1]}"


def check_real(x, name, lo=-math.inf, hi=math.inf, closed="[]"):
    """x as a float, or a float array for array input, after checking that
    every value lies between ``lo`` and ``hi``.

    ``closed`` spells the interval's brackets: "[)" admits lo and not hi.
    nan and +-inf lie in no interval.  Otherwise, and for complex input,
    raises :class:`DomainError` naming the argument and its first bad value.
    """
    if isinstance(x, (int, float)):  # plain comparisons: scalars come on hot paths
        if ((lo < x if closed[0] == "(" else lo <= x) and (x < hi if closed[1] == ")" else x <= hi)
                and -_FLOAT_MAX <= x <= _FLOAT_MAX):
            return float(x)
        bad = x
    else:
        arr = np.asarray(x)
        if arr.dtype.kind == "c":  # the float cast would drop the imaginary part
            raise DomainError(f"{name} must be real, got {arr}")
        arr = np.asarray(arr, dtype=float)
        inside = np.isfinite(arr)
        if lo > -math.inf:
            inside &= arr > lo if closed[0] == "(" else arr >= lo
        if hi < math.inf:
            inside &= arr < hi if closed[1] == ")" else arr <= hi
        if inside.all():
            return scalar_or_array(arr)
        bad = arr[~inside].flat[0]
    raise DomainError(f"{name} {_interval_text(lo, hi, closed)}, got {bad}")


def check_scalar(x, name, lo=-math.inf, hi=math.inf, closed="[]") -> float:
    """:func:`check_real` for an argument that takes one value: x as a float.

    A 0-d array counts as one value.  A list or an array of any other shape
    raises :class:`DomainError` naming the argument, once its values have
    passed the interval check.
    """
    x = check_real(x, name, lo, hi, closed)
    if isinstance(x, np.ndarray):
        raise DomainError(f"{name} must be one value, got an array of shape {x.shape}")
    return x


def scalar_or_array(out, *inputs):
    """A 0-d result as a Python float (or complex), any other as its ndarray.

    Every function of the package that takes a scalar or an array returns
    through here: a scalar or a 0-d array in gives a Python scalar out, a
    list or an array of any other shape gives an ndarray of that shape.
    Arithmetic on a 0-d array yields numpy scalars, whose power can differ
    from the array loop's in the last bit; a function that raises its whole
    input to a power therefore works on ``np.atleast_1d`` of its inputs and
    passes them as given in ``inputs``, and the result is reshaped to their
    broadcast shape here.
    """
    out = np.asarray(out)
    if inputs:
        out = out.reshape(np.broadcast_shapes(*map(np.shape, inputs)))
    return out.item() if out.ndim == 0 else out


def check_integer(x, name, lo=0) -> int:
    """x as a Python int: any integer value (3, 3.0, numpy.int64(3)) >= ``lo``.

    Raises :class:`DomainError` naming the argument for complex input, nan,
    +-inf, a non-integer, a value below ``lo``, or a list or an array of any
    shape but 0-d (in the words of :func:`check_scalar`).
    """
    if not isinstance(x, (int, float)):
        if np.iscomplexobj(x):
            raise DomainError(f"{name} must be real, got {x}")
        if np.ndim(x):
            raise DomainError(f"{name} must be one value, got an array of shape {np.shape(x)}")
    if not (lo <= x < math.inf and x == math.floor(x)):
        raise DomainError(f"{name} must be an integer >= {lo}, got {x}")
    return int(x)
