"""The file boundary: every JSON file and CLI payload is read, checked and
written here, in the standard library only, so the exact layer loads it
without numpy.  JSON text is compact and made in one ``json.dumps`` call,
which CPython encodes in C; ``indent`` and ``json.dump`` fall back to its
pure-Python encoder.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Mapping


def read_fields(data, what: str, converters: Mapping[str, Callable], defaults: Mapping = {}) -> dict:
    """Convert ``data[key]`` with each converter, taking an absent key from
    ``defaults``.  Anything else raises ``ValueError`` naming ``what`` and the key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} JSON must be an object, not {type(data).__name__}")
    fields = {}
    for key, convert in converters.items():
        if key not in data and key not in defaults:
            raise ValueError(f"{what} JSON field {key!r} is missing")
        try:
            fields[key] = convert(data[key] if key in data else defaults[key])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{what} JSON field {key!r} is malformed: {exc}") from None
    return fields


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def to_json(obj) -> str:
    return json.dumps(obj)


def write_files(texts: Mapping[str, str], overwrite: bool) -> None:
    """Write each text to its path, ending it with a newline.  Without
    ``overwrite`` each path is opened with ``"x"``: an existing one raises
    ``FileExistsError`` at the open, after the files written before it are
    removed."""
    written = []
    try:
        for path, text in texts.items():
            with open(path, "w" if overwrite else "x", encoding="utf-8", newline="") as handle:
                written.append(path)
                handle.write(text)
                if not text.endswith("\n"):
                    handle.write("\n")
    except FileExistsError:  # raised only by an exclusive open, so ``written`` are new files
        for path in written:
            os.remove(path)
        raise
