"""Reading and writing the pipeline's file artifacts.

Every stage output goes through this module, so the byte format and the
crash behaviour are decided in one place:

* a JSON Lines file holds one ``json.dumps(row, sort_keys=True)`` per
  line; a JSON document is ``json.dumps(doc, indent=2,
  sort_keys=True)`` and a newline; a rendering is its text as given.
  Sorted keys and shortest-repr floats make equal inputs give equal
  bytes.
* A writer fills ``<path>.tmp`` beside the target, then moves it into
  place with ``os.replace``.  A stage killed mid-write leaves the old
  file, or none, never a truncated one that a resumed run would take
  as done.
* Readers build each record with a ``make`` callable.  A malformed
  record (missing or unknown field, bad value) raises ``ValueError``
  naming the file and line.
"""

import contextlib
import json
import os

__all__ = ["read_jsonl", "reading", "write_json", "write_jsonl",
           "write_text"]

_MALFORMED = (KeyError, TypeError, ValueError)


def _write(path, chunks):
    """Write the text chunks to ``path`` through a temp file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_jsonl(path, rows):
    """One sorted-key JSON object per line."""
    _write(path, (json.dumps(row, sort_keys=True) + "\n" for row in rows))


def write_json(path, doc):
    """One indented, sorted-key JSON document."""
    _write(path, (json.dumps(doc, indent=2, sort_keys=True), "\n"))


def write_text(path, text):
    """Plain text, as given."""
    _write(path, (text,))


@contextlib.contextmanager
def reading(where):
    """Re-raise a malformed record as ``ValueError`` naming ``where``.

    A ``KeyError`` is a missing field; a ``TypeError`` from ``cls(**obj)``
    names the missing or unknown field itself.
    """
    try:
        yield
    except _MALFORMED as exc:
        reason = f"missing field {exc}" if type(exc) is KeyError else exc
        raise ValueError(f"{where}: {reason}") from exc


def read_jsonl(path, make):
    """``make(obj)`` for each non-blank line's JSON object, in order."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                with reading(f"{path}:{lineno}"):
                    out.append(make(json.loads(line)))
    return out
