"""Small shared helpers."""

import numbers
import os
import tempfile


def whole(value, name: str) -> int:
    """``value`` as a plain int; a bool, a fraction or any non-integer raises ``ValueError``."""
    # int first: for an int, the ABC check alone is several times slower than int()
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """``seed`` as a plain int by ``whole``; a negative one raises ``ValueError``."""
    seed = whole(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    return seed


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
