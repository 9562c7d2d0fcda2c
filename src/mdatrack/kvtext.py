"""Flat ``name = value`` text files.

The same grammar backs provider-parameter files, run configs and scenario
specs.  Floats are written with ``repr`` so that load/save round-trips are
bit-exact; comments start with '#'.  A key may be set once per file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ContractError, ParseError


def format_kv(items: dict[str, object]) -> str:
    lines = []
    for name, value in items.items():
        if isinstance(value, float):
            # a numpy float64 is a float whose repr names its type
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    items: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'name = value', got {raw!r}", lineno)
        name, _, value = line.partition("=")
        name = name.strip()
        if not name:
            raise ParseError("empty key", lineno)
        if name in items:
            raise ParseError(
                f"key {name!r} repeated, first set on line {first_line[name]}",
                lineno)
        first_line[name] = lineno
        items[name] = value.strip()
    return items


def take(raw: dict[str, str], keys: dict[str, type]) -> dict[str, object]:
    """Pop the ``keys`` that ``raw`` sets, each read by its type; a value the
    type cannot read raises a ContractError naming the key and the value."""
    out = {}
    for name, kind in keys.items():
        if name in raw:
            text = raw.pop(name)
            try:
                out[name] = kind(text)
            except ValueError:
                raise ContractError(
                    f"{name} = {text!r} is not a valid {kind.__name__}") from None
    return out


def save_kv(items: dict[str, object], path: str | Path) -> None:
    Path(path).write_text(format_kv(items), encoding="utf-8")


def load_kv(path: str | Path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))
