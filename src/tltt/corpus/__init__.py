"""The shipped `.2lt` library and its manifest.

The manifest is a plain-text file, one record per line:
``path<TAB>mode`` where mode is ``any`` (checks in both default and strong
mode), ``default-only`` (the rejection suite pins default-mode discipline)
or ``strong-only``.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

CORPUS_DIR = Path(__file__).resolve().parent
ORACLE_DIR = CORPUS_DIR / "oracles"


class ManifestEntry(NamedTuple):
    path: Path
    mode: str  # any | default-only | strong-only

    @property
    def in_default_run(self) -> bool:
        return self.mode in ("any", "default-only")

    @property
    def in_strong_run(self) -> bool:
        return self.mode in ("any", "strong-only")


def corpus_manifest() -> list[ManifestEntry]:
    """Canonical ordering of the corpus with per-file mode requirements."""
    entries = []
    for raw in (CORPUS_DIR / "manifest.txt").read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, mode = line.split("\t")
        entries.append(ManifestEntry(CORPUS_DIR / name, mode))
    return entries


def default_run_files() -> list[str]:
    return [str(e.path) for e in corpus_manifest() if e.in_default_run]


def strong_run_files() -> list[str]:
    return [str(e.path) for e in corpus_manifest() if e.in_strong_run]


def oracle_path(name: str) -> Path:
    return ORACLE_DIR / name
