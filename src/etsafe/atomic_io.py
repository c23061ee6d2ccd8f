"""Atomic text output shared by every writer of the package."""

from __future__ import annotations

import os
from typing import Iterable


def atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Stream text chunks to ``path.tmp``, then rename it onto ``path``.

    Readers see either the previous file or the complete new one.  If writing
    fails, the temp file is removed and ``path`` is left untouched.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
