"""Exception types shared across the package, and the shape check of files.

Every validation failure carries the measured residual (or the best value
found) so callers can report what was actually observed.
"""

from __future__ import annotations

import reprlib


class GapstabError(Exception):
    """Base class for package errors."""


class InvalidArgument(GapstabError, ValueError):
    """Malformed input: bad orders, weights, shapes, labels."""


class InvalidPVM(InvalidArgument):
    """Projections fail self-adjointness/idempotence/orthogonality/sum checks."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InvalidRepresentation(InvalidArgument):
    """Images fail unitarity or the multiplication law beyond tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NonGeneratingSupport(InvalidArgument):
    """The support of a measure does not generate the group."""


class InvalidField(InvalidArgument):
    """q is not a supported prime power."""


class RankDeficient(InvalidArgument):
    """A generator matrix does not have full row rank."""


class ResourceCap(GapstabError):
    """An enumeration or dilation would exceed the configured cap."""


class SamplingFailure(GapstabError):
    """A randomized search exhausted its budget. Carries the best candidate."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class PreconditionViolation(GapstabError):
    """A mathematical hypothesis fails beyond tolerance; carries the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateDecomposition(GapstabError):
    """A decomposition fails its check, or random choices hit a degenerate one."""


def check_shape(obj, shape, where: str = "file"):
    """Return the JSON value ``obj`` if it has ``shape``, else raise
    :class:`InvalidArgument` naming the first part that has not.  A shape is
    a type or tuple of types, a predicate, a list ``[s, ...]`` (any number
    of shape s) or ``[s1, s2]`` (exactly those), or a dict ``{key: s}``
    (``key`` required) or ``{str: s}`` (any keys)."""
    if isinstance(shape, dict):
        ok = isinstance(obj, dict) and all(k is str or k in obj for k in shape)
        parts = [
            (key, value, sub)
            for k, sub in (shape.items() if ok else ())
            for key, value in (obj.items() if k is str else [(k, obj[k])])
        ]
    elif isinstance(shape, list):
        each = shape[-1] is ...
        ok = isinstance(obj, list) and (each or len(obj) == len(shape))
        parts = [(i, v, shape[0] if each else shape[i]) for i, v in enumerate(obj)] if ok else []
    else:
        ok = isinstance(obj, shape) if isinstance(shape, (type, tuple)) else shape(obj)
        parts = []
    if not ok:
        raise InvalidArgument(f"malformed {where}: unexpected {reprlib.repr(obj)}")
    for key, value, sub in parts:
        check_shape(value, sub, f"{where}[{key!r}]")
    return obj
