"""Small shared helpers."""

import contextlib
import numbers
import os
import secrets

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


@contextlib.contextmanager
def atomic_file(path):
    """A text file that replaces ``path`` only if the ``with`` block ends cleanly.

    The temporary file is made beside ``path``, so the final ``os.replace``
    stays on one file system, and with mode 0o666 less the umask, as ``open``
    makes files. On any exception it is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write text to ``path`` through ``atomic_file``."""
    with atomic_file(path) as fh:
        fh.write(text)
