"""Run manifests: everything needed to reproduce a command's outputs.

Two runs on one machine, with one BLAS thread count, whose manifests agree
on all fields except the timestamp produce byte-identical outputs. Commands
that train name the kernel, whose last bits differ from the numpy step's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

TOOL_NAME = "driftbench"
TOOL_VERSION = "0.1.0"


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_tree(path: Path) -> dict[str, str]:
    if path.is_dir():
        return {
            str(p): file_digest(p)
            for p in sorted(path.iterdir())
            if p.is_file()
        }
    return {str(path): file_digest(path)}


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    parameters: dict
    inputs: dict[str, str]
    seed: int | None
    kernel: str | None = None  # set by commands that train
    tool: str = TOOL_NAME
    version: str = TOOL_VERSION
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def to_json(self) -> str:
        payload = {
            "tool": self.tool,
            "version": self.version,
            "subcommand": self.subcommand,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "seed": self.seed,
            "timestamp": self.timestamp,
        }
        if self.kernel is not None:
            payload["kernel"] = self.kernel
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def build_manifest(
    subcommand: str,
    parameters: dict,
    input_paths: list[str | Path],
    seed: int | None = None,
    kernel: str | None = None,
) -> RunManifest:
    inputs: dict[str, str] = {}
    for p in input_paths:
        inputs.update(_digest_tree(Path(p)))
    return RunManifest(
        subcommand=subcommand, parameters=parameters, inputs=inputs, seed=seed, kernel=kernel
    )
