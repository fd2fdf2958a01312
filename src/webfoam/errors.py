"""Exception types shared across the package, and the JSON file reader
that raises them."""

import json
import sys
from pathlib import Path

__all__ = ["WebfoamError", "InputError", "ValidationError", "InternalConsistencyError"]


class WebfoamError(Exception):
    """Base class for errors raised by this package."""


class InputError(WebfoamError):
    """Malformed input file or unparsable text."""


class ValidationError(WebfoamError):
    """Structurally invalid object (e.g. a vertex of the wrong valence)."""


class InternalConsistencyError(WebfoamError):
    """Two independent computations of the same quantity disagree.

    This always indicates a bug (or a violated mathematical expectation),
    never bad user input.
    """


def _read_json(path: Path) -> object:
    """Decoded contents of a JSON file.

    An unreadable file or invalid JSON raises :class:`InputError` naming
    the path (and, for invalid JSON, the line and column).  So do arrays
    and objects nested past the recursion limit and integer literals past
    the interpreter's int-to-string digit limit.  A missing file reads
    ``<path>: no such file``, as a missing web argument does.
    """
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise InputError(f"{path}: no such file") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"{path}: integer literal longer than {limit} digits") from exc
