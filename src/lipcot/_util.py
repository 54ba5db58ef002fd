"""Small shared helpers."""

import numbers
import os
import tempfile

from .errors import InvalidArgumentError


def whole(value, name: str, least=None) -> int:
    """``value`` as a plain int; a bool, a non-integer or a value below ``least`` is refused."""
    # int first: for an int, the ABC check alone is several times slower than int()
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise InvalidArgumentError(f"{name} must be at least {least}, got {value}")
    return value


def write_text_atomic(path, text: str) -> None:
    """Write text to ``path`` via a temporary file in the same directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
