"""Exception and warning types shared across the package."""


class WqsimError(Exception):
    """Base class for all wqsim errors."""


class InvalidGeometry(WqsimError):
    """Atom positions violate the mirror-terminated layout (z > 0, z2 > z1)."""


class InvalidCoupling(WqsimError):
    """A directional coupling rate is negative or non-finite."""


class InvalidFrequency(WqsimError):
    """The atomic resonance frequency is not a positive finite number."""


class InvalidGrid(WqsimError):
    """A mode grid is non-uniform, non-increasing, or reaches k <= 0."""


class StepTooLarge(WqsimError):
    """Integrator step exceeds the explicit method-of-steps bound."""


class NonFiniteState(WqsimError):
    """NaN/Inf detected in the integrator state (instability); `t` is the
    time of the first non-finite node found (inf where none is named)."""

    def __init__(self, message: str = "", t: float = float("inf")) -> None:
        super().__init__(message)
        self.t = t


class OutOfRange(WqsimError):
    """Trajectory sampled beyond its recorded end time."""


class MissingOrigin(WqsimError):
    """Field snapshot does not include the mirror position z = 0."""


class UnknownPreset(WqsimError):
    """Requested preset name is not defined."""


class ParseError(WqsimError):
    """Config file could not be parsed; message carries line/field info."""


class OutsideMarkovRegimeWarning(UserWarning):
    """Classification requested outside the short-delay/high-frequency regime."""
