"""Document files: the one reader of every input file, saved documents
written record by record, and the one way to write any output file.

:func:`read_document` reads a world, ground truth, replay store, world spec,
config or routes file; any fault is one error ``cannot read PATH: REASON``.
:func:`check_version` checks a saved document's envelope (the top-level
object with its ``format_version``), which :func:`save_document` writes.

A saved world, ground truth or replay store is exactly the text of
``json.dumps(doc.to_json_dict(), indent=2) + "\\n"``, but it is never built
as one tree or one string. :func:`save_document` writes the document's
envelope, and each record (a node, an edge, a ground-truth instance, a
recorded response) is formatted straight into its indent-2 text by its own
module, with the helpers below. They format values with the functions
``json.dumps`` itself uses: ``float.__repr__``, ``int.__repr__`` and
``json.encoder.encode_basestring_ascii``.

Every output goes through :func:`write_output`, which writes a sibling
temporary file and then replaces the destination with it, so a failure
part way leaves the old file as it was. A file or directory that cannot be
written is an :class:`OutputError` naming it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping, Sequence
from json.encoder import encode_basestring_ascii as string
from pathlib import Path

from .errors import GraphParseError, OutputError

_float = float.__repr__
_int = int.__repr__


def atom(value) -> str:
    """``null``, ``true``, ``false`` or an integer, as ``json.dumps`` writes them."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _int(value)


def array(items: Sequence[str], pad: str) -> str:
    """An array of formatted items, opened on a line indented by ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def floats(values: Sequence[float], pad: str) -> str:
    """A list of floats, opened on a line indented by ``pad``."""
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(map(_float, values)) + "\n" + pad + "]"


def mapping(values: Mapping[str, str], pad: str) -> str:
    """A str -> str object in insertion order, opened on a line indented by ``pad``."""
    if not values:
        return "{}"
    inner = "\n" + pad + "  "
    pairs = ("," + inner).join([string(k) + ": " + string(v) for k, v in values.items()])
    return "{" + inner + pairs + "\n" + pad + "}"


def check_version(doc, version: int, what: str, error: type[Exception] = GraphParseError):
    """``doc`` if it is an object whose ``format_version`` is the int ``version``
    (not a bool or a float that equals it), else an ``error``."""
    if not isinstance(doc, dict):
        raise error(f"{what}: expected an object")
    found = doc.get("format_version")
    if type(found) is not int or found != version:
        raise error(f"{what}: format_version: expected {version}, got {found!r}")
    return doc


def read_document(source, error: type[Exception] = GraphParseError, format_version: int | None = None):
    """The JSON document in the UTF-8 file ``source``, its envelope checked if
    ``format_version`` is given; any fault is an ``error`` ``cannot read PATH: ...``."""
    what = f"cannot read {source}"
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"{what}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, nesting too deep
        raise error(f"{what}: invalid JSON: {exc}") from exc
    return doc if format_version is None else check_version(doc, format_version, what, error)


def _document(format_version: int, fields) -> Iterable[str]:
    yield '{\n  "format_version": ' + atom(format_version)
    for name, brackets, records in fields:
        yield ",\n  " + string(name) + ": " + brackets[0]
        empty = True
        for record in records:
            yield ("\n    " if empty else ",\n    ") + record
            empty = False
        yield brackets[1] if empty else "\n  " + brackets[1]
    yield "\n}\n"


def save_document(destination, format_version: int, fields) -> None:
    """Write ``{"format_version": ..., <fields>}`` as ``json.dumps(indent=2)``
    would, plus a newline, one record at a time (see :func:`write_output`).

    ``fields`` holds ``(name, brackets, records)`` triples. ``brackets`` is
    ``"[]"`` for an array of records or ``"{}"`` for an object, whose records
    are ``"key": value`` texts. A record is its value's text as it sits at
    indent level 2, without its leading indentation.
    """
    write_output(destination, _document(format_version, fields))


def _cannot_write(destination, exc: OSError) -> OutputError:
    return OutputError(f"cannot write {destination}: {exc.strerror or exc}")


def write_output(destination, chunks: Iterable[str]) -> None:
    """Write text chunks (UTF-8) to ``destination``, replacing it atomically.

    The chunks go to a uniquely named temporary file beside the destination,
    created with the process umask, which then replaces the destination in
    one ``os.replace``. On any exception the temporary file is closed and
    removed and the destination is left untouched. An ``OSError`` (a missing
    directory, a destination that is a directory, a full disk) becomes an
    :class:`OutputError` naming the destination.
    """
    head, name = os.path.split(os.fspath(destination))
    temporary = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _cannot_write(destination, exc) from exc
    try:
        with open(fd, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        os.replace(temporary, destination)
    except BaseException as exc:
        try:
            os.unlink(temporary)
        except OSError:
            pass  # already gone; the original error is the one to report
        if isinstance(exc, OSError):
            raise _cannot_write(destination, exc) from exc
        raise


def make_output_dir(directory) -> Path:
    """Create an output directory and its parents if missing; an ``OSError``
    (a file in the way, no permission) is an :class:`OutputError`."""
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(directory, exc) from exc
    return path
