"""Exception types, the typed reader of settings, the text readers that report
malformed files with them, and the atomic writer behind every output file."""

import json
import os
from contextlib import contextmanager, suppress


class DimensionMismatchError(ValueError):
    """Operands do not share the same hypervector dimension."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable signal (e.g. all-black image)."""


class FormatError(ValueError):
    """A file does not conform to its declared format.

    ``location`` names the offending byte offset or row number when known.
    """

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class ConfigError(ValueError):
    """Invalid or incomplete configuration (missing table entry, bad key, ...)."""


def setting(cfg: dict, key: str, kind):
    """``cfg[key]`` as ``kind`` (int, float, str, or ``[kind]`` for a list of
    them), or None without the key. The value must have that JSON type,
    an int counting as a float; anything else (a boolean, null, a numeric
    string, a float for an int, a scalar for a list, a number too large to
    convert) is ConfigError naming the key."""
    if key not in cfg:
        return None
    value, many = cfg[key], isinstance(kind, list)
    item = kind[0] if many else kind
    items = value if many else [value]
    if isinstance(items, list) and all(
            isinstance(x, (int, float) if item is float else item) and not isinstance(x, bool)
            for x in items):
        try:
            items = [item(x) for x in items]
            return items if many else items[0]
        except OverflowError:  # an int too large for a float
            pass
    what = f"a list of {item.__name__}" if many else item.__name__
    raise ConfigError(f"{key!r} must be {what}, got {value!r}")


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text, a byte-order mark skipped;
    bytes that are not UTF-8 raise FormatError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None


def load_json(path):
    """The JSON document in ``path``; FormatError naming the file when it is
    not UTF-8 or not valid JSON, an integer too long to convert included."""
    with open_text(path) as f:
        text = f.read()
    try:  # outside open_text: a UnicodeDecodeError is a ValueError too
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


@contextmanager
def atomic_open(path):
    """Write UTF-8 text to ``path.tmp`` and rename it onto ``path`` when the
    block succeeds; on failure remove it, so ``path`` keeps its old contents."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
