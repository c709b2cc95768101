"""Exception types shared across the package."""


class EntpipeError(Exception):
    """Base class for all package-specific errors."""


class LayoutError(EntpipeError):
    """Subsystem layout is malformed or does not match an operand."""


class NormalizationError(EntpipeError):
    """State amplitudes are not normalized to within tolerance."""


class TruncationError(EntpipeError):
    """Fock-space truncation is too small for the requested amplitude."""


class NullStateError(EntpipeError):
    """Requested superposition is the null vector (e.g. odd cat at alpha=0)."""


class RailSubspaceError(EntpipeError):
    """Photonic state leaks out of the one-excitation-per-rail-pair subspace."""


class GridError(EntpipeError):
    """Spectral grid is too narrow or too coarse for the requested mode."""


class NotGhzClassError(EntpipeError):
    """A register failed the GHZ-class check, or is GHZ-class but not two
    complementary branches a|p> + b|~p>, the form the pipeline carries from
    the executed register on (``spin_register.ghz_branches``)."""


class ScheduleError(EntpipeError):
    """Schedule construction or execution was given inconsistent dots/blocks."""


class ConvergenceError(EntpipeError):
    """A numerical routine did not converge to its tolerance."""


class ConfigError(EntpipeError):
    """Configuration file failed validation.

    Carries the full list of problems so a user can fix them in one pass.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
