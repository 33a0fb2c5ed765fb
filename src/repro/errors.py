"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single exception type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TopologyError(ReproError):
    """Raised when a graph, tree, or partition is malformed."""


class SimulationError(ReproError):
    """Raised when a node program violates the CONGEST model.

    Examples: sending two messages over the same edge in one round,
    sending to a non-neighbor, or acting after halting.
    """


class BandwidthExceededError(SimulationError):
    """Raised when a message payload does not fit in O(log n) bits."""


class RoundLimitExceededError(SimulationError):
    """Raised when a simulation fails to terminate within ``max_rounds``."""


class ShortcutError(ReproError):
    """Raised when a shortcut object is malformed or violates its contract."""


class ConstructionFailedError(ReproError):
    """Raised when a shortcut construction cannot satisfy its guarantees.

    This is the failure signal used by the doubling mechanism of
    Appendix A: a trial with too-small parameter estimates raises this
    error, and the driver retries with doubled parameters.

    Attributes
    ----------
    iterations:
        Core/verification iterations consumed before giving up (0 when
        the failure happened before the main loop).  The doubling
        driver records this on its failed ``Trial``s.
    state:
        Optional partial-progress payload (a
        :class:`repro.core.find_shortcut.ConstructionState`): the parts
        still bad and the subgraphs already frozen, enabling the
        doubling warm start.  Kept untyped here so the exception layer
        stays free of core-layer imports.
    """

    def __init__(self, message: str, *, iterations: int = 0, state=None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.state = state


class DetectedFailure(ReproError):
    """A self-verifying run detected a fault it could not mask.

    This is the *declared* failure mode of the unreliable-network
    execution layer (:mod:`repro.congest.faults`,
    :mod:`repro.congest.reliable`, :mod:`repro.apps.selfcheck`): when
    retransmission budgets run out, a crash-stop schedule partitions
    the protocol, or an output fails its certificate after every retry,
    the run surfaces this exception instead of a silently wrong answer.

    Attributes
    ----------
    attempts:
        Number of full attempts consumed before declaring failure
        (0 when the failure was detected inside a single run).
    reasons:
        Per-attempt failure descriptions, for logs and reports.
    """

    def __init__(self, message: str, *, attempts: int = 0, reasons=()) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.reasons = tuple(reasons)
