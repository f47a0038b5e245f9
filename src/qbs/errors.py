"""Exception types shared across the package."""


class QbsError(Exception):
    """Base class for package-specific failures."""


class CapacityError(QbsError):
    """A circuit would exceed the statevector simulator's qubit cap."""


class PipelineError(QbsError):
    """Failure inside the assessment pipeline, tagged with the stage it came from."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
