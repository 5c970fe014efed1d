"""Exception types shared across the laboratory.

Every guard in the package raises one of these rather than a bare
ValueError, so callers (and the CLI exit-code mapping) can tell a bad
input apart from a numerical failure.
"""


class CknError(Exception):
    """Base class for all laboratory errors."""


class RegionViolation(CknError):
    """Parameter tuple leaves the admissible region; message names the failed constraint."""


class GammaMismatch(CknError):
    """Two parameter tuples cannot be chained because their gamma values differ."""


class BadGridSpec(CknError):
    """Radial grid request is malformed (empty window, too few nodes)."""


class TranslationForbidden(CknError):
    """Translation off the origin is only meaningful in the unweighted case a = 0."""


class MissingGradient(CknError):
    """Field carries no gradient data but a gradient functional was requested."""


class ZeroField(CknError):
    """Identically zero field where a normalisation or quotient is required."""


class BadExponent(CknError):
    """Non-positive exponent passed to a Lorentz-type norm."""


class RootFindFailure(CknError):
    """Amplitude normalisation did not reach the required residual."""


class OptimizerStall(CknError):
    """Optimizer not trusted: a projection certificate failed, or Newton hit its cap."""


class OnManifold(CknError):
    """Field is numerically indistinguishable from an exact extremal."""


class EmptyFamily(CknError):
    """Perturbation family produced no off-manifold sample."""


class DegenerateFit(CknError):
    """Slope fit input is unusable (too narrow, too large, or non-monotone)."""


class UnsupportedField(CknError):
    """Field does not satisfy the support restriction of a bounded-domain check."""


class GridMismatch(CknError):
    """Two fields live on different grids where a shared grid is required."""


class BasisTooSmall(CknError):
    """Dual-norm basis too small to mean anything."""


class NotOrthogonal(CknError):
    """Direction fails the tangent-space orthogonality required by a spectral quotient."""


class FarFromManifold(CknError):
    """Field violates the closeness gate of a near-manifold expansion."""


class DegenerateRho(CknError):
    """Perturbation part vanishes; alternative branches are trivial."""


class CaseRangeViolation(CknError):
    """Elementary inequality case used outside its exponent range."""


class ScalingGuardFailure(CknError):
    """Elementary inequality ratio changed under joint scaling of its arguments."""


class ConfigError(CknError):
    """Experiment configuration file is malformed; message carries the field path."""


class LedgerCorrupt(CknError):
    """Result ledger line failed to parse; message carries the line number."""
