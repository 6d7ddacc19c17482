"""The pinned query battery for the builtin universes.

One battery per universe: a scope (locals / ``this`` by full type name)
plus the representative queries the repo pins everywhere — the golden
top-10 files under ``tests/golden/``, ``repro profile``, ``repro
stats``, perfbench's serving probe, CI's serve smoke and its
trace-validation step all exercise these same queries, so a ranking change surfaces consistently
across all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ide.session import CompletionSession, open_session
from ..ide.workspace import Workspace


class Battery:
    """Scope and queries for one builtin universe."""

    def __init__(
        self,
        universe: str,
        queries: List[str],
        locals: Optional[Dict[str, str]] = None,
        this_type: Optional[str] = None,
    ) -> None:
        self.universe = universe
        self.queries = list(queries)
        self.locals = dict(locals or {})
        self.this_type = this_type

    @property
    def scope(self) -> Dict[str, object]:
        """The battery's scope as :func:`~repro.ide.session.open_session`
        keywords."""
        return {"locals": self.locals, "this": self.this_type}

    def session(
        self, workspace: Optional[Workspace] = None, n: int = 10
    ) -> CompletionSession:
        """A session over the battery's universe with its scope declared."""
        return open_session(workspace or Workspace.builtin(self.universe),
                            n=n, **self.scope)


BATTERIES: Dict[str, Battery] = {
    "paint": Battery(
        "paint",
        queries=["?", "?({img, size})", "?({img})", "img.?*f", "img.?m",
                 "size := ?"],
        locals={"img": "PaintDotNet.Document",
                "size": "System.Drawing.Size"},
    ),
    "geometry": Battery(
        "geometry",
        queries=["?", "?({point, shapeStyle})", "point.?*m", "this.?f",
                 "point.?*m >= this.?*m"],
        locals={"point": "DynamicGeometry.Point",
                "shapeStyle": "DynamicGeometry.ShapeStyle"},
        this_type="DynamicGeometry.EllipseArc",
    ),
    "bcl": Battery(
        "bcl",
        queries=["?", "?({now, span})", "now.?*f", "now.?m",
                 "now.?*m >= now.?*m"],
        locals={"now": "System.DateTime", "span": "System.TimeSpan"},
    ),
}


def battery_for(universe: str) -> Battery:
    return BATTERIES[Workspace.builtin_key(universe)]
