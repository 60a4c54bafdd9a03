"""The one way this package writes an output file: a reader of the target
sees its old content or the complete new content, never a partial write,
and of two writers to one path the last to finish wins."""

import contextlib
import os


def atomic_write(path, data: bytes) -> None:
    """Replace the file at `path` with `data`: write a uniquely named temp
    file beside it, fsync, rename it over `path`. The new file gets mode
    0o666 & ~umask, as open(path, "w") gives. On any error the temp file
    is removed and the error propagates."""
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
