"""Shared exception types."""


class SizeGuardError(RuntimeError):
    """A construction or enumeration would exceed its configured size guard."""
