"""Exception hierarchy.

Validation errors reject bad inputs; ComputationFailure subclasses signal
that a numerical procedure could not meet its accuracy/termination contract
(the CLI maps the former to exit code 2 and the latter to exit code 3).
Every class but those two bases is raised somewhere in the package, so none
names a case that cannot arise; tests/test_package.py checks that.
"""


class AttrarithError(Exception):
    pass


# --- input validation ---

class NotPositiveDefinite(AttrarithError):
    pass


class InvalidDiscriminant(AttrarithError):
    pass


class NotAttractor(AttrarithError):
    pass


class DegenerateCharge(AttrarithError):
    pass


class NotUpperHalfPlane(AttrarithError):
    pass


class ZeroTwist(AttrarithError):
    pass


class InvalidWeights(AttrarithError):
    pass


class NotUnit(AttrarithError):
    pass


class InvalidIndex(AttrarithError):
    pass


class DegreeTooSmall(AttrarithError):
    pass


class NotCoprime(AttrarithError):
    pass


class OutOfRange(AttrarithError):
    pass


class InvalidStep(AttrarithError):
    pass


class UnsupportedRange(AttrarithError):
    pass


# --- computation failures ---

class ComputationFailure(AttrarithError):
    pass


class PrecisionExhausted(ComputationFailure):
    pass


class RoundingFailed(ComputationFailure):
    pass


class NonConvergence(ComputationFailure):
    """A procedure missed its tolerance within its step budget.

    trajectory is the data computed so far, given either as a value or as a
    zero-argument callable that builds it on the first read, so a caller
    that never reads it never pays for it.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self._trajectory = trajectory

    @property
    def trajectory(self):
        if callable(self._trajectory):
            self._trajectory = self._trajectory()
        return self._trajectory
