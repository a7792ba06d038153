"""The common base of the errors quantred raises on purpose."""


class QuantredError(Exception):
    """A failure the package detects and reports: bad model or action data,
    an infeasible slice, too few samples, a loop that did not converge.

    Each module's error class derives from it and from ValueError or
    RuntimeError.  Any other exception escaping quantred is a programming
    error.
    """
