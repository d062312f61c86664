"""The one place output files are created (see `replacing`).  The only
other writes are corpus `.bits` files, which their manifest regenerates, and
a pool's fixed-size cursor update under its lock (`qrn.QrnPool.take`)."""

from __future__ import annotations

import contextlib
import os
import secrets
import stat
import sys
from pathlib import Path

from .errors import IoFailure


@contextlib.contextmanager
def replacing(path, mode: int | None = None):
    """Yield a binary handle whose bytes become path only if the block
    completes: they go to a sibling temporary file, synced and then renamed
    over path (a symlink's target, not the link), so path holds its old
    bytes or all the new ones, even after a crash, and infile == outfile
    works.  '-' (stdout), devices and FIFOs are written through.  With
    mode=None a replaced file keeps its permission bits; with a mode (0o600
    for secrets) the temporary file is created with it before any byte is
    written."""
    if str(path) == "-":
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    path = Path(os.path.realpath(path))
    direct = path.exists() and not path.is_file()
    tmp = path if direct else path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "wb" if direct else "xb",
                  opener=lambda p, flags: os.open(p, flags, 0o666 if mode is None else mode))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    if direct:
        with fh:
            yield fh
        return
    try:
        with fh:
            if mode is None and path.exists():
                os.fchmod(fh.fileno(), stat.S_IMODE(path.stat().st_mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path, *parts: bytes, mode: int | None = None) -> None:
    """Write parts in turn through `replacing`; OSError becomes IoFailure."""
    try:
        with replacing(path, mode) as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
