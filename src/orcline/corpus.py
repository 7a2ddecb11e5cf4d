"""Access to the bundled example inputs.

The package ships a small corpus of feature models (``.fm``),
transition systems (``.mts``/``.lts``) and Orc programs (``.orc``)
used throughout the documentation and tests.  ``export_fixtures``
copies them into a directory so they can be edited and re-run.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

_SUFFIXES = (".orc", ".fm", ".mts", ".lts")


def _fixture_dir():
    return resources.files("orcline") / "fixtures"


def fixture_names() -> list:
    """Names of all bundled files, sorted."""
    return sorted(entry.name for entry in _fixture_dir().iterdir()
                  if entry.name.endswith(_SUFFIXES))


def fixture_text(name: str) -> str:
    """The contents of one bundled file."""
    return fixture_path(name).read_text()


def fixture_path(name: str) -> Path:
    """Filesystem path of one bundled file."""
    if name not in fixture_names():
        raise KeyError(f"no bundled fixture named {name!r}; "
                       f"available: {', '.join(fixture_names())}")
    return Path(str(_fixture_dir() / name))


def export_fixtures(dest: str) -> list:
    """Copy every bundled file into ``dest``; returns written paths."""
    out_dir = Path(dest)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in fixture_names():
        target = out_dir / name
        target.write_text(fixture_text(name))
        written.append(str(target))
    return written
