"""Loading, dumping, and linting scenario specs (YAML or JSON).

Entry points::

    load("scenarios/fig15_flow_scalability.yaml")   # path -> Scenario
    loads(text, fmt="yaml")                          # text -> Scenario
    dumps(scenario, fmt="json")                      # canonical round-trip
    lint(path)                                       # -> [SpecError fields]
    resolve_spec("smoke_mini")                       # library name -> path

YAML is optional: the parser is imported lazily and a missing PyYAML turns
into a :class:`SpecError` telling the user to use JSON, not an ImportError
mid-command.  Parse failures (bad YAML/JSON syntax) are reported with the
line number the parser blames, so ``repro scenarios validate`` output is
line-addressed for syntax and field-addressed for semantics.

The bundled spec library lives in the repository's top-level ``scenarios/``
directory; ``REPRO_SCENARIOS_DIR`` overrides the location (useful for
private spec collections).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterator, List, Optional, Tuple

from repro.runtime.config import env_text
from repro.scenarios.schema import Scenario, SpecError

_SPEC_SUFFIXES = (".yaml", ".yml", ".json")


def _yaml():
    try:
        import yaml
    except ImportError:
        return None
    return yaml


def parse_text(text: str, fmt: str = "yaml", source: str = "<string>"):
    """Parse spec text to plain data; raises SpecError on syntax errors."""
    if fmt == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(("<syntax>", f"not valid JSON: {exc.msg}"),
                            source=source, line=exc.lineno) from exc
    yaml = _yaml()
    if yaml is None:
        raise SpecError(("<syntax>",
                         "PyYAML is not installed; write the spec as JSON "
                         "(.json) or install pyyaml"), source=source)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = (mark.line + 1) if mark is not None else None
        problem = getattr(exc, "problem", None) or str(exc)
        raise SpecError(("<syntax>", f"not valid YAML: {problem}"),
                        source=source, line=line) from exc


def loads(text: str, fmt: str = "yaml", source: str = "<string>",
          base_dir: Optional[pathlib.Path] = None) -> Scenario:
    """Parse and validate spec text."""
    data = parse_text(text, fmt=fmt, source=source)
    return Scenario.from_dict(data, source=source, base_dir=base_dir)


def load(path) -> Scenario:
    """Load and validate a spec file (.yaml/.yml/.json)."""
    path = pathlib.Path(path)
    fmt = "json" if path.suffix == ".json" else "yaml"
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(("<file>", f"cannot read spec: {exc}"),
                        source=str(path)) from exc
    return loads(text, fmt=fmt, source=str(path), base_dir=path.parent)


def dumps(scenario: Scenario, fmt: str = "yaml") -> str:
    """Serialize the canonical form; ``loads(dumps(s)) == s``."""
    data = scenario.to_dict()
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    yaml = _yaml()
    if yaml is None:
        raise SpecError(("<syntax>", "PyYAML is not installed; "
                                     "dump as JSON instead"))
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)


def lint(path) -> List[Tuple[str, str]]:
    """All problems in a spec file as ``(field, message)`` pairs.

    An empty list means the spec is valid (it loads *and* compiles).
    """
    from repro.scenarios.compiler import compile_scenario

    try:
        scenario = load(path)
        compile_scenario(scenario)
    except SpecError as exc:
        return list(exc.errors)
    return []


# -- bundled spec library -----------------------------------------------------

def library_dir() -> pathlib.Path:
    """The bundled spec directory (``REPRO_SCENARIOS_DIR`` overrides)."""
    env = env_text("REPRO_SCENARIOS_DIR")
    if env:
        return pathlib.Path(env)
    # src/repro/scenarios/loader.py -> repo root is three levels up from
    # the package directory.
    return pathlib.Path(__file__).resolve().parents[3] / "scenarios"


def iter_library() -> Iterator[pathlib.Path]:
    """Bundled spec files, sorted by name."""
    root = library_dir()
    if not root.is_dir():
        return iter(())
    return iter(sorted(p for p in root.iterdir()
                       if p.suffix in _SPEC_SUFFIXES))


def resolve_spec(name_or_path: str) -> pathlib.Path:
    """A spec argument: an existing file path, or a bundled library name."""
    path = pathlib.Path(name_or_path)
    if path.exists():
        return path
    root = library_dir()
    for suffix in ("",) + _SPEC_SUFFIXES:
        candidate = root / (name_or_path + suffix)
        if candidate.exists():
            return candidate
    known = ", ".join(p.stem for p in iter_library()) or "(library empty)"
    raise SpecError(("<file>", f"no such spec file or library entry "
                               f"{name_or_path!r}; bundled: {known}"),
                    source=name_or_path)
