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
  as done.  Writers take iterables and readers yield, so a stage that
  streams records through holds one at a time, not the whole file.
* Readers build each record with a ``make`` callable.  A malformed
  record (missing or unknown field, bad value) raises ``ValueError``
  naming the file and line.  So does a second record for one key, in
  the files where each key may appear once.
"""

import contextlib
import json
import os

__all__ = ["read_jsonl", "read_jsonl_once", "reading", "write_json",
           "write_jsonl", "write_jsonl_split", "write_text"]

_MALFORMED = (KeyError, TypeError, ValueError)


@contextlib.contextmanager
def _replacing(paths):
    """Yield a text handle on ``<path>.tmp`` for each path.  When the
    block ends they all move into place; if it raises, they are removed
    and the targets keep their old bytes."""
    tmps = [os.fspath(p) + ".tmp" for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(t, "w")) for t in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def write_jsonl(path, rows):
    """One sorted-key JSON object per line."""
    write_jsonl_split([path], ((0, row) for row in rows))


def write_jsonl_split(paths, rows):
    """Write each ``(i, row)`` of ``rows`` as a line of ``paths[i]``.

    One pass over ``rows`` fills every file; none goes into place
    before every row is written.  Returns the row count of each path.
    """
    counts = [0] * len(paths)
    with _replacing(paths) as handles:
        for i, row in rows:
            handles[i].write(json.dumps(row, sort_keys=True) + "\n")
            counts[i] += 1
    return counts


def write_json(path, doc):
    """One indented, sorted-key JSON document."""
    with _replacing([path]) as (fh,):
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_text(path, text):
    """Plain text, as given."""
    with _replacing([path]) as (fh,):
        fh.write(text)


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
    """Yield ``make(obj)`` for each non-blank line's JSON object, in
    order, reading one line at a time."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                with reading(f"{path}:{lineno}"):
                    record = make(json.loads(line))
                yield record


def read_jsonl_once(path, make, key, repeated):
    """The records of :func:`read_jsonl`, as a list.  A record whose
    ``key(record)`` an earlier one had raises ``ValueError`` naming its
    line: ``<path>:<line>: <repeated> <key>``."""
    seen = set()

    def once(obj):
        record = make(obj)
        k = key(record)
        if k in seen:
            raise ValueError(f"{repeated} {k}")
        seen.add(k)
        return record

    return list(read_jsonl(path, once))
