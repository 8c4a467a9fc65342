"""Run manifests: every CLI output artifact gets a JSON sidecar
recording the exact invocation, configuration, seed, and tool version
so simulation and emulation runs can be reproduced bit-identically."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    subcommand: str
    argv: list[str]
    config: dict
    seed: int
    outputs: list[str] = field(default_factory=list)
    version: str = __version__
    started_utc: str = field(default_factory=_utcnow)
    finished_utc: str = ""

    def finish(self) -> "RunManifest":
        self.finished_utc = _utcnow()
        return self

    def write(self, primary_output: str) -> str:
        """Atomically write `<primary_output>.manifest.json` next to
        the artifact."""
        path = primary_output + ".manifest.json"
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(asdict(self), f, indent=2, sort_keys=True)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
