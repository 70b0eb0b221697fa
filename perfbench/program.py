"""Load greenmat from the checkout's ``src`` and describe the environment."""

from __future__ import annotations

import hashlib
import importlib
import os
import pathlib
import platform
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = (
    "semiring", "matrix", "green", "_boolspace", "_tropfast",
    "linear_maps", "sampling", "verify", "eggbox", "cli",
)


class MissingProgram(RuntimeError):
    pass


def load() -> SimpleNamespace:
    """Import a fresh copy of every greenmat module.

    Any copy imported before is dropped first, so each call pays the
    whole import again; `setup_s` measures this repeatedly.
    """
    if not (SRC / "greenmat" / "__init__.py").is_file():
        raise MissingProgram(f"no greenmat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "greenmat" or m.startswith("greenmat.")]:
        del sys.modules[name]
    package = importlib.import_module("greenmat")
    if pathlib.Path(package.__file__).resolve().parent != SRC / "greenmat":
        raise MissingProgram(f"greenmat was imported from {package.__file__}, not {SRC}")
    prog = SimpleNamespace(modules={"greenmat": package})
    for name in MODULES:
        mod = importlib.import_module(f"greenmat.{name}")
        setattr(prog, name, mod)
        prog.modules[name] = mod
    return prog


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _git_commit() -> str | None:
    """HEAD read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest() -> str:
    """Identifies the measured source even where there is no .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "greenmat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
