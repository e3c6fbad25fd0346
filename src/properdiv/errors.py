"""Shared exception types and the face guard."""

import os

DEFAULT_FACE_GUARD = 2_000_000


class SizeGuardError(RuntimeError):
    """A construction or enumeration would exceed its configured size guard."""


def face_guard_default() -> int:
    """Face-count guard; the PROPERDIV_GUARD_FACES env var overrides it."""
    raw = os.environ.get("PROPERDIV_GUARD_FACES")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"PROPERDIV_GUARD_FACES must be an integer, got {raw!r}"
            ) from None
    return DEFAULT_FACE_GUARD
