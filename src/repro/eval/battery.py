"""The pinned query battery for the builtin universes.

One battery per universe: a scope (locals / ``this`` by full type name)
plus the representative queries the repo pins everywhere — the golden
top-10 files under ``tests/golden/``, ``repro loadtest``, ``repro
profile``, ``repro stats``, and the CI trace-validation step all
exercise these same queries, so a ranking change surfaces consistently
across all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ide.session import CompletionSession
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

    def session(
        self, workspace: Optional[Workspace] = None, n: int = 10
    ) -> CompletionSession:
        """A session over the battery's universe with its scope declared."""
        workspace = workspace or Workspace.builtin(self.universe)
        session = CompletionSession(workspace, n=n)
        for name, type_name in self.locals.items():
            session.declare(name, type_name)
        if self.this_type is not None:
            session.set_this(self.this_type)
        return session


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
    try:
        return BATTERIES[universe]
    except KeyError:
        raise ValueError(
            "no battery for universe {!r}; pick one of {}".format(
                universe, ", ".join(sorted(BATTERIES))))
