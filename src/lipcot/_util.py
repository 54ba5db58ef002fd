"""Small shared helpers."""

import contextlib
import dataclasses
import json
import numbers
import os
import secrets

import numpy as np

from .errors import InvalidArgumentError, LipcotError


_SHOWN_CHARS = 80  # characters of an offending value that a refusal echoes


def shown(value) -> str:
    """``repr(value)`` for a refusal message, cut to ``_SHOWN_CHARS`` characters and ``...``.

    A value that has no ``repr`` (nesting past the recursion limit, an int
    past ``str``'s digit limit) is shown by its type.
    """
    try:
        text = repr(value)
    except (RecursionError, ValueError):
        text = f"<{type(value).__name__}>"
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def whole(value, name: str, least=None) -> int:
    """``value`` as a plain int; a bool, a non-integer or a value below ``least`` is refused."""
    # int first: for an int, the ABC check alone is several times slower than int()
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise InvalidArgumentError(f"{name} must be an integer, got {shown(value)}")
    value = int(value)
    if least is not None and value < least:
        raise InvalidArgumentError(f"{name} must be at least {least}, got {shown(value)}")
    return value


class FieldEquality:
    """Field-wise ``==`` for frozen dataclasses that hold arrays.

    The dataclass-generated ``__eq__`` compares arrays with ``==``, whose
    result has no single truth value. Here arrays compare by
    ``np.array_equal``, other fields by ``==``, and a field marked
    ``compare=False`` not at all. Instances are unhashable, as their arrays
    are. Subclasses are decorated with ``eq=False``, which keeps this method.
    """

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = (
            (getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self)
            if f.compare
        )
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def built(cls, **fields):
    """A ``cls`` holding ``fields`` as given, every field named, ``__post_init__`` not run.

    For a value the library has just made from checked ones: each field must
    already be what the constructor's checks would store (an ``int`` order,
    a ``float`` rate, a float64 vector), so the object equals, and shows as,
    the one the constructor builds. The caller keeps any check its
    arithmetic can still fail.
    """
    value = object.__new__(cls)
    value.__dict__.update(fields)
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


def read_json(path):
    """The JSON value in the file at ``path``; ``LipcotError`` naming ``path`` if it does not parse.

    Nesting past the parser's recursion limit does not parse either.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise LipcotError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
        except (ValueError, RecursionError) as exc:
            raise LipcotError(f"{path}: not valid JSON ({exc})") from None
