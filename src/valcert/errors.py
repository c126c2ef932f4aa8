"""Exception hierarchy shared by all modules, and the integer check every
JSON decoder applies to its integer fields.

Exit-code mapping used by the CLI lives in cli.py; the classes here only
classify failure kinds.
"""


class ValcertError(Exception):
    """Base class for all package errors."""


class InputError(ValcertError):
    """Malformed or inconsistent input (precondition violation, bad JSON)."""


class VariantMismatchError(InputError):
    """Mixed value-group variants or base fields in one operation."""


class IndeterminateValError(ValcertError):
    """A valuation cannot be read off: all known terms vanish but the
    series is only known below its truncation order."""


class HorizonError(ValcertError):
    """A search ran past the configured horizon H without settling."""


class NotStabilizedError(HorizonError):
    """A value that must become constant did not stabilize within H."""


class UndecidedError(ValcertError):
    """Branch logic exhausted its retry budget without a verified branch."""


class VerificationError(ValcertError):
    """An emitted certificate failed an independent re-check."""

    def __init__(self, claim: str, detail: str = ""):
        self.claim = claim
        self.detail = detail
        super().__init__(f"verification failed at {claim}" + (f": {detail}" if detail else ""))


def require_int(obj, name: str) -> int:
    """obj, if it is a JSON integer; a float, a bool or a string is not."""
    if type(obj) is not int:
        raise InputError(f"{name} must be an integer, got {obj!r}")
    return obj
