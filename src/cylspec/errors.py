"""Exception types shared across the package.

Every error raised on a user-facing path derives from CylspecError so the CLI
can map failures onto its exit-code contract (invalid input vs. certificate
failure vs. internal error).
"""


class CylspecError(Exception):
    """Base class for all package errors."""


class InvalidInput(CylspecError):
    """Bad user input: malformed config, out-of-range parameter, wrong rank."""


class InvalidParams(InvalidInput):
    """Parameter set violates a documented validity restriction."""


class NonInvertibleSector(CylspecError):
    """The unperturbed gauge operator cannot remove the requested components.

    Raised when tau = 0 and the source has components along the parallel
    dr (x) dr or dr-mixed harmonic directions, which only quadratically
    growing generators could produce.
    """


class ResonantTau(CylspecError):
    """4 tau^2 collides with a cross-section eigenvalue; the perturbed
    radial systems would be singular."""


class ResonantRate(InvalidInput):
    """A source rate lies within the near-resonance window of a homogeneous
    rate of a radial solve, but not on it; the closed form would divide by
    the tiny gap.  The message names both rates."""


class NotInKernel(CylspecError):
    """A tensor handed to the kernel classifier fails the kernel residual
    checks; the message names the offending value."""


class CertificateFailure(CylspecError):
    """A residual certificate exceeded its threshold during a CLI run."""


class MemoryGuard(InvalidInput):
    """Requested grid would exceed the dense-storage budget."""
