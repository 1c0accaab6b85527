"""Where a result came from: source revision, command, seed and host."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``root/.git`` without running
    git (None when the tree is not a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_sha256(root: Path) -> str:
    """A digest of every Python file under ``root/src`` (path and bytes),
    which identifies the program even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, argv: List[str], seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "argv": list(argv),
        "seed": seed,
        "nproc": os.cpu_count(),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
