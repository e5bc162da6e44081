"""Exception types shared across the toolkit, and the limits that both
config validation and the layers raising them check."""

# the fitted phase moves one electrical degree per strobe degree, so a step
# this wide between consecutive strobes aliases in the unwrap (and at
# exactly 180 deg the direction of travel is lost)
STROBE_STEP_LIMIT_DEG = 180.0
# a strobe fires that many degrees into the last two drive cycles of the run
# (t_end - 2T + deg/360 T), so no strobe instant may lie past this
STROBE_SPAN_LIMIT_DEG = 720.0
# the widest strobe window, as a fraction of the drive period
STROBE_DUTY_LIMIT = 0.2
# instants averaged across an open strobe window, at the centres of its
# equal slices: the last lies (1 - 1/8) 180 deg x duty past the strobe
STROBE_SUBSAMPLES = 8
# the smallest raster (pixels per side, and the imaged half-width as a
# multiple of the outer radius) and the fewest samples on a ring; a
# config's ring meets RING_SAMPLES_PER_HARMONIC * ELECTRODE_MIN_HARMONIC
RASTER_MIN_PIXELS = 16
RASTER_MIN_MARGIN = 1.0
RING_MIN_COUNT = 8
# harmonic detection scans n up to count // this, so a ring resolves
# harmonic n only with at least this many samples per unit of n
RING_SAMPLES_PER_HARMONIC = 8
# the electrode layouts, and the lowest harmonic the electrodes can drive
PHASE_LAYOUTS = ("quadrature", "single")
ELECTRODE_MIN_HARMONIC = 1
# first zero of J0: float(scipy.special.jn_zeros(0, 1)[0]) bit for bit; the
# first dark time-averaged fringe lies where k a reaches it
J0_FIRST_ZERO = 2.4048255576957724


class StatorLabError(Exception):
    """Base class for all statorlab errors."""


class GeometryError(StatorLabError):
    """Inconsistent or physically impossible stator geometry."""


class ConfigError(StatorLabError):
    """Invalid or incomplete run configuration."""


class DiscretizationError(StatorLabError):
    """Radial mesh or quadrature setup cannot produce valid matrices."""


class DomainError(StatorLabError):
    """Argument outside the operation's valid domain (radius, time, ...)."""


class TimeStepError(DomainError):
    """Requested integration step violates the sampling-accuracy bound."""


class GridMismatchError(DomainError):
    """Two pixel grids that must be identical are not."""


class SamplingError(StatorLabError):
    """Too few samples on the circle for the requested harmonic."""


class NoModeError(StatorLabError):
    """No circumferential harmonic rises above the noise floor."""


class UnwrapError(StatorLabError):
    """Phase unwrapping along a closed path failed the closure check."""


class UndefinedIndexError(StatorLabError):
    """Asymmetry index undefined because the fitted amplitude is ~zero."""


class NumericalError(StatorLabError):
    """Eigensolver or other numerical kernel failed to converge.

    Carries the circumferential harmonic and the radial node count so a
    failing solve can be reproduced.
    """

    def __init__(self, message, harmonic=None, radial_nodes=None):
        if harmonic is not None:
            message = f"{message} (harmonic n={harmonic}, radial_nodes={radial_nodes})"
        super().__init__(message)
        self.harmonic = harmonic
        self.radial_nodes = radial_nodes
