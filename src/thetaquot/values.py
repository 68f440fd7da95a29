"""Value classes without generated code, and what numeric shares with the
CLI, recognize and series, which compile no numeric.py until they evaluate.

A subclass of ``Value`` declares its fields as annotations, in constructor
order, with defaults on trailing fields; the fields become its
``__slots__``.  An instance is built positionally or by keyword,
compares equal to an instance of its own class with equal fields, hashes
and prints as its fields, and is immutable: the constructor sets each field
once.  ``replace`` copies one with some fields changed, through the
constructor, so its checks run again.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["CertificationError", "MAX_TERMS", "MIN_DIGITS", "Rat", "ThetaSpec",
           "Value", "replace"]

Rat = int | Fraction
# the most terms of a theta sum on each side of its vertex, and of the
# accumulator of a product form
MAX_TERMS = 10 ** 6
MIN_DIGITS = 20  # the least precision a real is evaluated at


class CertificationError(ArithmeticError):
    """An internal consistency check failed beyond tolerance."""


class _Fields(type):
    """Makes a class body's annotated names its slots, and their values
    the defaults."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields
        return super().__new__(mcls, name, bases, ns)


class Value(metaclass=_Fields):
    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() is missing {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unknown or repeated {sorted(kwargs)}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._astuple()


def replace(obj: Value, **changes) -> Value:
    """A copy of ``obj`` with the fields named in ``changes`` set to them."""
    return type(obj)(**{name: getattr(obj, name) for name in obj.__slots__} | changes)


class ThetaSpec:
    """Parameter pair (a, p) of a theta quotient A = q^delta theta(p/2, p/2 -
    a) / eta(q^p), delta = p/12 - a/2 + a^2/(2p).  A leads at ``lead`` =
    delta + min_n (p/2 n^2 + (p/2 - a) n) unless ``is_zero``: A is zero
    exactly when a/p is an integer, as b/a = 1 - 2a/p of its theta sum is
    then odd and its terms n and -b/a - n cancel in pairs."""

    __slots__ = ("a", "p", "delta", "lead", "is_zero")

    def __init__(self, a: Rat, p: Rat):
        a = Fraction(a)
        p = Fraction(p)
        if p <= 0:
            raise ValueError("p must be positive")
        delta = p / 12 - a / 2 + a * a / (2 * p)
        n = (2 * a - p) // (2 * p)  # the vertex a/p - 1/2, rounded down
        lead = delta + min(p / 2 * k * k + (p / 2 - a) * k for k in (n, n + 1))
        is_zero = (a / p).denominator == 1
        for name, value in zip(self.__slots__, (a, p, delta, lead, is_zero)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ThetaSpec is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return ThetaSpec, (self.a, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, ThetaSpec) and self.a == other.a and self.p == other.p
        )

    def __hash__(self):
        return hash((self.a, self.p))

    def __repr__(self):
        return f"ThetaSpec(a={self.a}, p={self.p}, delta={self.delta})"
