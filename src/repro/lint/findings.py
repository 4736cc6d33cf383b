"""The :class:`Finding` record produced by every lint rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding"]


@dataclass(frozen=True, kw_only=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the filesystem path as scanned (what the user clicks);
    ``package_path`` is the path normalised to start at the ``repro``
    package (e.g. ``repro/sim/engine.py``), the same from any scan root.
    ``text`` is the stripped source line.
    """

    code: str
    path: str
    package_path: str
    line: int
    col: int
    message: str
    text: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def format(self) -> str:
        """One ``path:line:col: CODE message`` diagnostic line."""
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.code, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "package_path": self.package_path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "text": self.text,
        }
