"""Domain error taxonomy.

Every error the library raises on purpose derives from PegServoError so the
CLI can map any of them to exit code 1 and print the class name. Plain
programming errors (TypeError and friends) are not wrapped.
"""


class PegServoError(Exception):
    """Base class for all domain errors."""


class DegenerateView(PegServoError):
    """Camera looks along the insertion axis; it carries no in-plane information."""


class InsufficientViews(PegServoError):
    """Fewer than two error directions were supplied to the reconstruction."""


class BehindCamera(PegServoError):
    """Projected point has non-positive depth in the camera frame."""


class InvalidTolerance(PegServoError):
    """Search tolerance must be strictly positive."""


class InvalidRadius(PegServoError):
    """Search radius must be non-negative."""


class InvalidConfig(PegServoError):
    """A configuration value violates its documented invariant."""


class ConstraintViolation(PegServoError):
    """A TCP move left the insertion plane without a stroke, or had a non-finite target."""


class ShapeMismatch(PegServoError):
    """Observation does not match the model input specification."""


class EmptyDataset(PegServoError):
    """Operation requires at least one sample."""


class LeakedInsertion(PegServoError):
    """Train and validation sets share an insertion id."""


class NotDifferentiableKind(PegServoError):
    """gradient_check only applies to the mlp kind."""


class TooFewInsertions(PegServoError):
    """Split needs strictly more insertion groups than train_insertions."""


class AllInsertionsFailed(PegServoError):
    """No collection insertion succeeded, so no data could be gathered."""


class ModelsNotDeployed(PegServoError):
    """Servo mode requested without a full set of per-camera models."""


class InsufficientData(PegServoError):
    """Not enough rows (or error spread) to fit the timing law."""


class IoError(PegServoError):
    """Filesystem failure while writing or reading an artifact."""


class CorruptArtifact(PegServoError):
    """A saved artifact is truncated, malformed or of another schema version."""
