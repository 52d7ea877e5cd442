"""Doc truth: every module path the prose docs name in backticks exists.

Scans ``DESIGN.md``, ``README.md`` and ``docs/*.md`` for backticked
references into the package and checks each one against ``src/repro/``:

* dotted names (``repro.cache.broker``, ``repro.obs.profiler.SimProfiler``)
  must import, with any trailing components resolving as attributes;
* slash paths (``repro/cache/``, ``engine/compute.py``) ending in ``.py``
  or ``/`` must exist.  Paths into the repo's other top-level
  directories (``benchmarks/``, ``tests/``, ...) are not package paths
  and are skipped, as are bare file names without a directory.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DOCS = sorted([ROOT / "DESIGN.md", ROOT / "README.md",
               *(ROOT / "docs").glob("*.md")])

_BACKTICKED = re.compile(r"`([^`\s<>]+)`")
_DOTTED = re.compile(r"repro(\.[A-Za-z_]\w*)+")
_SLASHED = re.compile(r"(src/)?[A-Za-z_][\w/]*(\.py|/)")


def _references(text):
    for token in _BACKTICKED.findall(text):
        token = token.split("(", 1)[0]
        if _DOTTED.fullmatch(token):
            yield "dotted", token
        elif ("/" in token and _SLASHED.fullmatch(token)
              and _package_path(token) is not None):
            yield "path", token


def _package_path(token):
    """``token`` as a path under ``src/repro``, or ``None`` when it
    points into another top-level directory of the repo."""
    parts = token.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts[0] == "repro":
        parts = parts[1:]
    elif (ROOT / parts[0]).is_dir():
        return None
    return PACKAGE.joinpath(*[p for p in parts if p])


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


REFERENCES = sorted({(doc.relative_to(ROOT).as_posix(), kind, token)
                     for doc in DOCS
                     for kind, token in _references(doc.read_text())})


def test_docs_name_package_paths():
    # Guards the scan itself: an over-strict pattern would pass vacuously.
    kinds = {kind for _, kind, _ in REFERENCES}
    assert kinds == {"dotted", "path"}


@pytest.mark.parametrize("doc,kind,token", REFERENCES)
def test_backticked_module_path_exists(doc, kind, token):
    if kind == "dotted":
        assert _resolves(token), f"{doc}: `{token}` does not resolve"
    else:
        assert _package_path(token).exists(), \
            f"{doc}: `{token}` not under src/repro/"
