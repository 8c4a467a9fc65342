"""Run manifests: every CLI output artifact gets a JSON sidecar
recording the exact invocation, configuration, seed, and tool version
so simulation and emulation runs can be reproduced bit-identically."""

from __future__ import annotations

import os
import tempfile
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .records import Record


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunManifest(Record):
    """One run's manifest. `outputs` starts as a new empty list and
    `started_utc` as the time of construction, unless given."""

    _fields = ("subcommand", "argv", "config", "seed", "outputs", "version", "started_utc",
               "finished_utc")

    def __init__(self, subcommand: str, argv: list[str], config: dict, seed: int,
                 outputs: Optional[list[str]] = None, version: str = __version__,
                 started_utc: Optional[str] = None, finished_utc: str = ""):
        self.subcommand = subcommand
        self.argv = argv
        self.config = config
        self.seed = seed
        self.outputs = [] if outputs is None else outputs
        self.version = version
        self.started_utc = _utcnow() if started_utc is None else started_utc
        self.finished_utc = finished_utc

    def finish(self) -> "RunManifest":
        self.finished_utc = _utcnow()
        return self

    def write(self, primary_output: str) -> str:
        """Atomically write `<primary_output>.manifest.json` next to
        the artifact."""
        import json  # loaded on first use

        path = primary_output + ".manifest.json"
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(dict(zip(self._fields, self._values())), f, indent=2,
                          sort_keys=True)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
