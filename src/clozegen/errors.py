"""Exception types shared across the package, the base of its record types,
the one check of every count and of every span, the two readers that every
input file goes through, and the typed reader for every field."""

import json


class ClozegenError(Exception):
    """Base class for all package-specific errors."""


class BackendError(ClozegenError):
    """An inference backend failed; the original cause is chained."""


class ContractViolation(ClozegenError, ValueError):
    """A caller broke a documented precondition."""


class SequenceLengthError(ClozegenError):
    """A token sequence exceeds the backend's maximum length."""


class SpanError(ClozegenError, ValueError):
    """An answer span does not fit inside its context."""


class ParseError(ClozegenError):
    """An input file does not match the expected schema."""


class ResolveError(ClozegenError):
    """An answer string could not be located inside its context."""


class ConfigError(ClozegenError):
    """Invalid or incomplete configuration."""


class FrozenRecord:
    """Named fields, the subclass's ``__slots__`` in order, each set once by
    ``object.__setattr__`` in ``__init__``.

    The shared ``__init__`` binds positional values to the fields in order,
    then keywords to the rest; a record that checks, converts or defaults a
    field does so first and passes the results on to it. A record equals one
    of the same type whose fields are equal, hashes by them (so one holding a
    list is unhashable), reprs as ``Name(field=value, ...)`` and cannot be
    assigned to.
    """

    __slots__ = ()

    def __init__(self, *values, **fields):
        names = self.__slots__
        if len(values) > len(names):
            raise self._field_error(f"{len(values)} values given")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        if len(values) < len(names) or fields:
            for name in names[len(values):]:
                if name not in fields:
                    raise self._field_error(f"field {name!r} missing")
                object.__setattr__(self, name, fields.pop(name))
            if fields:
                name = next(iter(fields))
                raise self._field_error(
                    f"field {name!r} given twice" if name in names else f"unknown field {name!r}"
                )

    def _field_error(self, problem: str) -> TypeError:
        return TypeError(f"{type(self).__qualname__}({', '.join(self.__slots__)}): {problem}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def check_count(name: str, value, low: int) -> int:
    """``value`` if it is an ``int`` of at least ``low`` (a bool is not), else a
    ContractViolation naming ``name``."""
    if type(value) is not int:
        raise ContractViolation(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ContractViolation(f"{name} must be >= {low}")
    return value


def check_span(span: tuple[int, int], length: int, what: str) -> tuple[int, int]:
    """``span`` if its bounds are ``int`` (a bool is not) and it is a nonempty
    half-open span inside ``length``, else a SpanError naming it as outside
    ``what``."""
    start, end = span
    if type(start) is not int or type(end) is not int:
        raise SpanError(f"span bounds must be integers, not ({start!r}, {end!r})")
    if not 0 <= start < end <= length:
        raise SpanError(f"span ({start}, {end}) outside {what}")
    return span


def read_json(path) -> dict:
    """The one JSON object in the file at ``path``.

    Bytes that are not UTF-8, invalid JSON or a document that is not an
    object are a ParseError naming the file; an OSError passes through.
    """
    with open(path, "rb") as handle:
        return _json_object(_utf8(handle.read(), path), path)


def read_json_lines(path):
    """Yield ``(line number, where, object)`` for each nonblank line of ``path``.

    Lines end only at ``\\n``, and the file is read one line at a time.
    ``where`` names the file and the line, and every ParseError raised for
    a line begins with it.
    """
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            where = f"{path}: line {lineno}"
            text = _utf8(line, where)
            if not text.isspace():
                yield lineno, where, _json_object(text, where)


def _utf8(data: bytes, where: object) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text: {exc}") from exc


def _json_object(text: str, where: object) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ParseError(f"{where}: expected a JSON object")
    return doc


_REQUIRED = object()
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", dict: "an object"}


def read_field(doc: dict, key: str, kind, where: object, default=_REQUIRED):
    """``doc[key]`` if it is of ``kind``, or ``default`` if the key is absent.

    ``kind`` is a JSON type (``float`` is any number), ``[k]`` a list of
    ``k`` values, or ``(k1, k2, ...)`` a list of exactly those values. Types
    match exactly, so a bool is no number; nothing is converted. A mismatch,
    or a missing field without a default, is a ParseError that begins with
    ``where``, the file (and line) the field was read from.
    """
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"{where}: field {key!r} is missing")
        return default
    value = doc[key]
    if type(value) is not kind:
        _check(value, kind, where, key)
    return value


def _check(value, kind, where: object, name: str) -> None:
    """Raise unless ``value`` fits ``kind``; not called when ``type(value) is kind``."""
    if type(value) is list and type(kind) in (list, tuple):
        kinds = kind * len(value) if type(kind) is list else kind
        if len(kinds) == len(value):
            for i, item in enumerate(value):
                if type(item) is not kinds[i]:
                    _check(item, kinds[i], where, f"{name}[{i}]")
            return
    elif kind is float and type(value) is int:
        return
    raise ParseError(f"{where}: field {name!r} must be {_describe(kind)}")


def _describe(kind) -> str:
    if type(kind) is tuple:
        return f"a list of {len(kind)} values"
    return "a list" if type(kind) is list else _KIND_NAMES[kind]
