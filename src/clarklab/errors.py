"""Exception types shared across the package."""


class ClarkLabError(Exception):
    """Base class for all domain errors."""


class NotEnoughAtoms(ClarkLabError):
    """Operation needs more atoms than the measure carries."""


class InvalidMeasure(ClarkLabError, ValueError):
    """Atoms and masses do not describe a finite positive atomic measure."""


class InvalidAngle(ClarkLabError, ValueError):
    """An angle on the circle is NaN or infinite."""


class DuplicateAtoms(ClarkLabError, ValueError):
    """Two atoms of a measure lie closer than the duplicate tolerance."""


class SpectrumPoint(ClarkLabError):
    """Evaluation or scan touched the boundary spectrum."""


class DegenerateSymbol(ClarkLabError):
    """u(0) = 1, so the Pythagorean pair is not defined."""


class PhaseMonotonicityViolation(ClarkLabError):
    """Sampled boundary phase decreased; scan too close to the spectrum
    or the sampling step is too coarse."""


class SupportMismatch(ClarkLabError):
    """Two measures that must share atoms do not."""


class DimensionMismatch(ClarkLabError):
    """Vector length does not match the atom count."""


class MateZero(ClarkLabError):
    """The Pythagorean mate vanishes where a kernel norm needs it."""


class QuadratureNotConverged(ClarkLabError):
    """Grid doubling did not bring the quadrature change under tolerance."""


class AtomOutsideArc(ClarkLabError, ValueError):
    """The atom of a tail estimate lies outside its arc."""


class BoundaryAtom(ClarkLabError):
    """The atom sits on the boundary of the arc, where the tail estimate
    is trivial."""


class WrongFamily(ClarkLabError):
    """A family-specific shortcut was applied to a section that was not
    built from that family's closed forms."""


class DenseCapExceeded(ClarkLabError):
    """A dense matrix was asked for beyond its size cap."""


class InvalidConstants(ClarkLabError):
    """Neighbor constants must satisfy 0 < A <= B."""


class ConstraintViolation(ClarkLabError):
    """A perturbation plan violates one of its admissibility caps."""

    def __init__(self, index: int, bound: str, message: str):
        super().__init__(f"atom {index}: {bound}: {message}")
        self.index = index
        self.bound = bound
