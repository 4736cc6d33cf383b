"""On-disk run registry: memoize finished deployments across invocations.

Format (one JSON file)::

    {
      "format": 1,
      "runs": {
        "<spec-sha256>:<code-version>": {
          "spec":      {...},   # RunSpec.to_dict()
          "metrics":   {...},   # DeploymentMetrics.to_dict()
          "elapsed_s": 1.23,    # wall time of the original execution
          "created_unix": 1700000000.0
        },
        ...
      }
    }

Keys combine the spec's content hash with the *code version* -- a hash
over every ``repro`` source file -- so editing the simulator invalidates
every cached run while config-identical re-invocations hit.  JSON
round-trips Python floats exactly, so cached metrics are bit-identical
to freshly computed ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from typing import Dict, Optional

from ..obs.telemetry import TELEMETRY, span
from .spec import RunSpec

__all__ = ["RunRegistry", "code_version"]

logger = logging.getLogger(__name__)

_FORMAT = 1

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file (cached per process)."""
    global _code_version_cache
    if _code_version_cache is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for root, dirs, files in sorted(os.walk(package_root)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


class RunRegistry:
    """A JSON file of finished runs keyed by spec hash + code version."""

    def __init__(self, path: str, version: Optional[str] = None) -> None:
        self.path = os.path.abspath(os.path.expanduser(path))
        self.version = version if version is not None else code_version()
        self._runs: Dict[str, Dict] = {}
        self._dirty = False
        #: On-disk entries merged in by :meth:`save` over this
        #: registry's lifetime (runs another process persisted between
        #: our load and our save -- e.g. two concurrent sweeps).
        self.merged_entries = 0
        self._load()

    # ------------------------------------------------------------------
    def _read_runs(self) -> Optional[Dict[str, Dict]]:
        """The ``runs`` table currently on disk, or ``None``.

        A missing file is normal (fresh registry).  An unreadable or
        unparsable file is *not* silently discarded -- it may hold hours
        of memoized runs -- so it is moved aside to ``<path>.corrupt``
        and a warning names both paths.
        """
        try:
            with open(self.path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            backup = self.path + ".corrupt"
            try:
                os.replace(self.path, backup)
            except OSError:  # pragma: no cover - backup best-effort
                backup = "<backup failed>"
            logger.warning(
                "run registry %s is unreadable (%s); starting empty, "
                "the original file was preserved at %s",
                self.path, error, backup,
            )
            return None
        if isinstance(data, dict) and data.get("format") == _FORMAT:
            runs = data.get("runs")
            if isinstance(runs, dict):
                return runs
        return None

    def _load(self) -> None:
        with span("registry.load"):
            runs = self._read_runs()
        if runs is not None:
            self._runs = runs

    def _key(self, spec: RunSpec) -> str:
        return "%s:%s" % (spec.key(), self.version)

    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, spec: RunSpec) -> bool:
        return self._key(spec) in self._runs

    def get(self, spec: RunSpec):
        """The cached :class:`DeploymentMetrics` for *spec*, or ``None``."""
        entry = self._runs.get(self._key(spec))
        if entry is None:
            TELEMETRY.count("registry.cache_misses")
            return None
        TELEMETRY.count("registry.cache_hits")
        from ..experiments.testbed import DeploymentMetrics

        return DeploymentMetrics.from_dict(entry["metrics"])

    def put(self, spec: RunSpec, metrics, elapsed_s: float) -> None:
        """Record a finished run (call :meth:`save` to persist)."""
        self._runs[self._key(spec)] = {
            "spec": spec.to_dict(),
            "metrics": metrics.to_dict(),
            "elapsed_s": float(elapsed_s),
            "created_unix": time.time(),
        }
        self._dirty = True

    def save(self) -> int:
        """Atomically write the registry back to disk (if changed).

        The on-disk file is re-read and merged first: runs another
        process saved since our load are kept instead of being
        overwritten (two sweeps sharing one registry file used to
        be last-writer-wins, silently dropping one sweep's runs).  Our
        in-memory entries win on key collisions (they are the freshest
        execution).  Returns the number of merged-in entries, also
        accumulated on :attr:`merged_entries`.
        """
        if not self._dirty:
            return 0
        with span("registry.save"):
            return self._save_locked()

    def _save_locked(self) -> int:
        merged = 0
        on_disk = self._read_runs()
        if on_disk:
            for key, entry in on_disk.items():
                if key not in self._runs:
                    self._runs[key] = entry
                    merged += 1
        if merged:
            self.merged_entries += merged
            logger.info(
                "run registry %s: merged %d concurrent entr%s from disk",
                self.path, merged, "y" if merged == 1 else "ies",
            )
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        payload = {"format": _FORMAT, "runs": self._runs}
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self.path)
        finally:
            if os.path.exists(tmp_path):  # pragma: no cover - error path
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        self._dirty = False
        return merged
