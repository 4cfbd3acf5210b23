"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, protocol or
integrity failures -> 2, capacity problems -> 3.
"""


class ObgeError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(ObgeError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigError(ObgeError):
    """Invalid parameter combination (bad Z, budget, ...)."""


class CapacityError(ObgeError):
    """Real blocks exceed tree plus stash capacity."""


class StashOverflowError(CapacityError):
    """Held blocks exceeded the engine's limit (``oram.held_limit``) after write-back."""


class IntegrityError(ObgeError):
    """Authenticated decryption failed: wrong key or tampered bytes.  Where
    a run of ciphertexts failed (``crypto.Cipher.open_path``), index is the
    position of the one that failed; otherwise it is None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ProtocolError(ObgeError):
    """Malformed frame, unknown message type, or broken request/response."""
