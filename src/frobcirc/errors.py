"""Exception types shared across the package."""


class FrobcircError(ValueError):
    """Base class for all domain errors raised by frobcirc."""


class EvenKernel(FrobcircError):
    """The kernel modulus of a first-kind Frobenius circulant must be odd."""


class InadmissibleDegree(FrobcircError):
    """Degree is odd or does not divide gcd(p_1 - 1, ..., p_l - 1)."""


class BadExponent(FrobcircError):
    """Exponent tuple entry not coprime to the degree."""


class Disconnected(FrobcircError):
    """Operation requires a connected graph."""


class DegenerateCut(FrobcircError):
    """Vertex-cut query on a set leaving fewer than two vertices."""


class NotAUnit(FrobcircError):
    """Residue is not invertible modulo n, so it has no multiplicative order."""


class NotARotation(FrobcircError):
    """Residue is not a complete rotation of the graph."""


class SizeTooSmall(FrobcircError):
    """Hexagonal-mesh size parameter must be at least 2."""


class ExponentTooSmall(FrobcircError):
    """Prime-power family requires exponent e >= 3."""
