"""Flat key=value config files shared by the CLI and the data generator.

The format is deliberately plain so runs stay diffable: one ``key = value``
per line, ``#`` comments, blank lines ignored. Typing is applied by the
consumer against its known keys.
"""

from __future__ import annotations

from datetime import time
from typing import Collection, Sequence


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, missing input path."""


def check_names(key: str, names: Sequence[str], known: Collection[str], kind: str) -> None:
    """Refuse the name list setting ``key`` unless it has entries, none empty,
    each one of ``known`` and none repeated; ``kind`` names an entry."""
    if not names or "" in names:
        raise ConfigError(f"config key {key!r}: an empty {kind} name")
    unknown = [n for n in names if n not in known]
    repeated = sorted({n for n in names if names.count(n) > 1})
    for fault, found in (("unknown", unknown), ("repeated", repeated)):
        if found:
            raise ConfigError(f"config key {key!r}: {fault} {kind}(s) {', '.join(found)}")


def parse_kv_file(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_night_window(text: str) -> tuple[time, time]:
    """Parse ``18:00-08:00`` into a (start, end) pair of local times. A time
    with a UTC offset is refused: the offset to local time is a setting of
    its own. So is a window whose start is its end: [start, end) holds no time."""
    try:
        start_text, _, end_text = text.partition("-")
        window = time.fromisoformat(start_text.strip()), time.fromisoformat(end_text.strip())
    except ValueError as exc:
        raise ConfigError(f"night window {text!r}: {exc}") from exc
    if any(t.tzinfo is not None for t in window):
        raise ConfigError(f"night window {text!r}: a time with a UTC offset; "
                          "give local times and the offset as --utc-offset")
    if window[0] == window[1]:
        raise ConfigError(f"night window {text!r}: empty, its start is its end")
    return window
