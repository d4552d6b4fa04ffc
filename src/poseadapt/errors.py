"""Exception hierarchy shared across the package."""


class PoseAdaptError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(PoseAdaptError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(PoseAdaptError, ValueError):
    """Array shapes are inconsistent with the operation."""


class ConfigError(PoseAdaptError):
    """A run configuration failed validation."""


class DependencyError(PoseAdaptError):
    """A required input artifact (checkpoint, dataset) is missing."""


class DatasetError(PoseAdaptError):
    """A dataset file is unreadable, truncated or corrupt."""


class CheckpointError(PoseAdaptError):
    """A checkpoint file is unreadable or corrupt."""


class CheckpointIncompatibleError(CheckpointError):
    """Checkpoint contents do not match the requested configuration."""


class TrainingFailureError(PoseAdaptError):
    """Training failed; a divergence carries the last finite parameters
    as ``snapshot``, a copy of the network's flat parameter buffer."""

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot


class DegenerateFeatureError(TrainingFailureError):
    """A feature vector has zero norm and cannot be cosine-normalized."""


class GroundTruthAccessError(PoseAdaptError):
    """Evaluation-only ground truth was touched outside an evaluation pass."""
