"""The one way this package writes an output file, and the one way it
reads a JSON input file: a reader of the target sees its old content or
the complete new content, never a partial write, and of two writers to
one path the last to finish wins."""

import contextlib
import json
import os


def atomic_write(path, data: bytes) -> None:
    """Replace the file at `path` with `data`: write a uniquely named temp
    file beside it, fsync, rename it over `path`, then fsync the directory
    so the rename itself is durable. The new file gets mode 0o666 & ~umask,
    as open(path, "w") gives. On any error before the rename the temp file
    is removed; every error propagates."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _distinct_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def read_json(path, what: str, error):
    """The JSON value in the file at `path`, as plain dicts and lists. It
    must be strict UTF-8 JSON, with no key repeated within one object and
    no key or string holding a lone surrogate; else `error` is raised,
    naming `what` and the path. NaN and Infinity parse: each format refuses
    them where it can name the key. An unreadable file raises OSError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
        value = json.loads(text, object_pairs_hook=_distinct_keys)
        if "\\u" in text:  # only a \u escape gives a surrogate, which cannot encode
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not strict UTF-8 JSON: {exc}") from exc
    return value
