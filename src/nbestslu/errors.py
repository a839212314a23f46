"""Exception hierarchy shared across the package, and the one way a JSON value is read.

A reader is a builder that takes each value through ``exact`` where it uses
it, run by ``checked``, which raises a failure as the reader's own error.
"""


class SluError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(SluError, ValueError):
    """Operands do not conform; the message names both shapes."""


class DomainError(SluError, ValueError):
    """An argument value is outside the operation's domain."""


class GraphStateError(SluError, RuntimeError):
    """Backward invoked without a usable forward graph."""


class NumericFailure(SluError, ArithmeticError):
    """A NaN or infinity appeared where finite values are required."""


class DataFormatError(SluError, ValueError):
    """A file does not match its declared format or version."""


class ParseError(DataFormatError):
    """A malformed record; the message carries the file location."""


class CorpusError(DataFormatError):
    """A corpus import failed; the message names the call or turn."""


class ConfigError(SluError, ValueError):
    """Invalid configuration, or artifacts that do not belong together."""


class ModelStateError(SluError, RuntimeError):
    """A model is not in a state where the requested operation is valid."""


_JSON_TYPES = {str: "string", int: "integer", float: "number", list: "array", dict: "object"}


def exact(value, kind: type):
    """``value`` if its JSON type is exactly ``kind``, else ``TypeError``; a ``float`` also takes an int, not a bool."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"expected a JSON {_JSON_TYPES[kind]}, got {value!r}")


def checked(error: type[Exception], where, build, *args):
    """``build(*args)``; a ``ValueError``, ``KeyError``, ``TypeError``, ``OverflowError`` or
    ``RecursionError`` it raises becomes ``error`` naming ``where``.

    ``ValueError`` includes ``ConfigError``, so a builder never parses a configuration.
    A builder names a part it reads by running that part through ``checked(ValueError, name, ...)``.
    """
    try:
        return build(*args)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise error(f"{where}: {exc}") from None
