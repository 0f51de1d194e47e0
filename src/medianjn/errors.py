"""Exception types shared across the package.

Every error raised by the library derives from :class:`MedianJNError`, so
callers can catch one base class.  The specific names mirror the failure
they report; functions document which ones they raise.
"""


class MedianJNError(Exception):
    """Base class for all library errors."""


class InvalidParameter(MedianJNError):
    """An argument violates a precondition not covered by a named error."""


# ---------------------------------------------------------------- space


class NonPositiveWeight(MedianJNError):
    """A point weight is zero or negative."""


class TriangleViolation(MedianJNError):
    """The distance matrix violates the triangle inequality."""


class AsymmetricMetric(MedianJNError):
    """The distance matrix is asymmetric beyond tolerance."""


class UnknownCenter(MedianJNError):
    """A ball center is not a point of the space."""


class NonPositiveRadius(MedianJNError):
    """A ball radius must be strictly positive."""


class NonPositiveDilation(MedianJNError):
    """A dilation factor must be strictly positive."""


class EmptyRegion(MedianJNError):
    """A region argument resolved to no points."""


# ---------------------------------------------------------------- median


class EmptySet(MedianJNError):
    """A median was requested over an empty set."""


class InvalidS(MedianJNError):
    """The median level s is outside its admissible range."""


# ---------------------------------------------------------------- norms


class NonPositiveQ(MedianJNError):
    """The integral oscillation exponent q must be positive."""


class ExactModeTooLarge(MedianJNError):
    """Exact packing refused: too many candidate balls (pass force=True)."""


# ---------------------------------------------------------------- covering


class EmptyFamily(MedianJNError):
    """A covering was requested for an empty ball family."""


# ---------------------------------------------------------------- czd


class EmptyBase(MedianJNError):
    """The base ball of a Calderon-Zygmund family is empty."""


class EmptyLevelSet(MedianJNError):
    """The level set E_lambda is empty."""


class ThresholdViolated(MedianJNError):
    """The base-ball median threshold exceeds the requested level."""


class PreconditionViolated(MedianJNError):
    """A named hypothesis of the good-lambda inequality fails."""


class InvalidLevel(MedianJNError):
    """A median level derived from t and beta left (0, 1], or a lambda grid is empty or not finite."""


class InvalidCenterLevel(MedianJNError):
    """The centering level r must satisfy s <= r <= 1/2."""


class CertificateViolation(MedianJNError):
    """An internally constructed decomposition failed its own certificate."""


# ---------------------------------------------------------------- boman


class UnverifiedDecomposition(MedianJNError):
    """An operation requires a decomposition that passes verification."""


class ConstructionFailed(MedianJNError):
    """No parameter choice produced a verified decomposition."""


class UnknownBall(MedianJNError):
    """A decomposition names a central ball that is not among its balls."""


# ---------------------------------------------------------------- generators


class InvalidDim(MedianJNError):
    """Grid dimension must be 1 or 2."""


class UnknownKind(MedianJNError):
    """Unknown canonical function kind."""
