"""Correctness gate applied to every run of a workload's command.

A run passes when the command exited 0, its outputs pass ``foodsec
verify`` against the planted truth, and the sha256 of every artifact its manifest names equals that of the
invocation's first run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact named in the run manifest's ``outputs``."""
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in manifest["outputs"]
    }


def verify_failures(inp: Path, out: Path) -> list[str]:
    """The checks ``foodsec verify`` fails on these outputs."""
    from foodsec.synth import verify_outputs

    report = verify_outputs(inp / "truth.csv", out)
    return [f"verify {c.name}: {c.detail}" for c in report.checks if not c.passed]
