"""Cross-references from code and docs to README sections."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (see README, "Title"), possibly broken across comment lines.
CITATION = re.compile(r'see README,[\s#]+"([^"]+)"')


def _readme_of(path: Path) -> Path:
    """The README.md a file means: the one in its directory or the nearest
    one above it."""
    for directory in path.parents:
        if (directory / "README.md").exists():
            return directory / "README.md"
    raise AssertionError(f"no README.md above {path}")


def _headings(readme: Path) -> set:
    titles, fenced = set(), False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            titles.add(line.lstrip("#").strip())
    return titles


def test_readme_citations_name_existing_headings():
    citations = []
    for top in ("bench", "src"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            for title in CITATION.findall(path.read_text(encoding="utf-8")):
                citations.append((path, title))
    assert citations, "no README citation found; has the pattern drifted?"
    missing = [(str(path.relative_to(ROOT)), title) for path, title in citations
               if title not in _headings(_readme_of(path))]
    assert not missing
