"""The file boundary: every JSON file and CLI payload is read and written
here, in the standard library only, so the exact layer loads it without
numpy.  JSON text is compact and made by ``json.dumps``, which CPython
encodes in C; ``indent`` and ``json.dump`` fall back to its pure-Python
encoder.  The large outputs (grids, fields, lattices) are written row by
row: ``json_object`` yields the text ``json.dumps`` makes of a payload, one
row of each row-valued field at a time, so no whole-document string and no
full list of rows is ever built, and the bytes are the same.  The error
types live here, so the CLI catches them by type without loading a layer,
and so do the integer rule and the rational reader the constructors apply.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping


class BifreeInputError(ValueError):
    """Bad input: a malformed file, literal, option or argument.  Every
    validation error of the library is one, or of a subclass."""


class NonConvergenceError(RuntimeError):
    """The entropy quadrature failed to reach the requested tolerance."""


def integer(value, what: str) -> int:
    """``value`` if it is an ``int``: never a ``bool`` or a float, ``2.0`` included."""
    if type(value) is not int:
        raise BifreeInputError(f"{what} must be an integer, got {value!r}")
    return value


def rational(value, what: str):
    """``value`` as a ``Fraction``: an ``int`` or ``Fraction`` as it is, else read from its text,
    so ``0.1`` and ``"0.1"`` are both 1/10, and a bool, NaN or inf raises ``BifreeInputError``."""
    from fractions import Fraction  # here, so the lattice CLI never loads it
    if type(value) in (int, Fraction):
        return Fraction(value)
    text = str(value)
    # a decimal exponent of five digits or more is refused unread: building
    # its power of 10 alone would take seconds, or more memory than there is
    if len(text.lower().partition("e")[2].strip().lstrip("+-0")) <= 4:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise BifreeInputError(f"{what} has a zero denominator: {value!r}") from None
        except ValueError:  # Fraction's "Invalid literal": a bool, NaN, inf or junk
            pass
    raise BifreeInputError(f"{what} must be a rational, got {value!r}")


def read_fields(data, what: str, converters: Mapping[str, Callable | None], defaults: Mapping = {}) -> dict:
    """``data[key]`` for each key of ``converters`` (else ``defaults[key]``), converted unless its
    converter is ``None``.  Anything else raises ``BifreeInputError`` naming ``what`` and the key."""
    if not isinstance(data, Mapping):
        raise BifreeInputError(f"{what} JSON must be an object, not {type(data).__name__}")
    fields = {}
    for key, convert in converters.items():
        if key not in data and key not in defaults:
            raise BifreeInputError(f"{what} JSON field {key!r} is missing")
        value = data[key] if key in data else defaults[key]
        try:
            fields[key] = value if convert is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise BifreeInputError(f"{what} JSON field {key!r} is malformed: {exc}") from None
    return fields


def load_json(path: str, parse: Callable = lambda data: data):
    """``parse`` of the JSON value in ``path``.  A decode error, or a
    ``BifreeInputError`` from ``parse`` (of the same class), names the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise BifreeInputError(f"{path}: {exc}") from None
    try:
        return parse(data)
    except BifreeInputError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def json_rows(rows: Iterable) -> Iterator[str]:
    """The text ``json.dumps(list(rows))`` makes, one chunk per row: ``"["``,
    then ``json.dumps(row)`` for each row joined by ``", "``, then ``"]"``.
    Each row is taken from ``rows`` only when its chunk is asked for."""
    sep = "["
    for row in rows:
        yield sep + json.dumps(row)
        sep = ", "
    yield "[]" if sep == "[" else "]"


def json_object(fields: Mapping[str, object]) -> Iterator[str]:
    """The text ``json.dumps`` makes of ``fields``, in chunks, where a value
    that is an iterator (a generator of rows, say) stands for the list of its
    rows and is written by ``json_rows``; the other values go into
    ``json.dumps`` as they are."""
    sep = "{"
    for key, value in fields.items():
        yield f"{sep}{json.dumps(key)}: "
        if isinstance(value, Iterator):
            yield from json_rows(value)
        else:
            yield json.dumps(value)
        sep = ", "
    yield "{}" if sep == "{" else "}"


def _chunks(text: str | Iterable[str]) -> Iterable[str]:
    return [text] if isinstance(text, str) else text


def write_stdout(text: str | Iterable[str]) -> None:
    """What ``print(text)`` writes, for a text that may come in chunks."""
    sys.stdout.writelines(_chunks(text))
    sys.stdout.write("\n")


def write_files(texts: Mapping[str, str | Iterable[str]], overwrite: bool) -> None:
    """Write each text to its path, ending it with a newline.  A text is a
    ``str`` or an iterable of chunks, each written as it comes.  Without
    ``overwrite`` each path is opened with ``"x"``: an existing one raises
    ``FileExistsError`` at the open.  With ``overwrite`` an existing file is
    truncated at the open, so its old contents are gone from then on.

    If anything raises after the first open (a refused open, a failed write,
    or a chunk iterable that raises partway), every file this call opened is
    removed, that one included, and the error propagates: no file is left
    partly written, and a refused call writes nothing."""
    written = []
    try:
        for path, text in texts.items():
            with open(path, "w" if overwrite else "x", encoding="utf-8", newline="") as handle:
                written.append(path)
                last = ""
                for chunk in _chunks(text):
                    handle.write(chunk)
                    last = chunk or last
                if not last.endswith("\n"):
                    handle.write("\n")
    except BaseException:
        for path in written:  # never the path whose open failed: that one is not ours
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
