"""Workspaces: named universes an interactive session can work against.

The paper leaves IDE integration to future work; this layer is the
library-level substrate an IDE plugin (or our REPL) would sit on — it owns
the long-lived state: the type system, the completion engine with its
indexes, and (for corpus projects) the abstract-type analysis.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..analysis.abstract_types import AbstractTypeAnalysis
from ..analysis.diagnostics import Diagnostic
from ..analysis.scope import Context
from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..corpus.oracle import ImplAbstractTypes
from ..corpus.program import MethodImpl, Project
from ..engine.completer import CompletionEngine, EngineConfig
from ..engine.ranking import AbstractTypeOracle


class Workspace:
    """A universe plus the engine and analyses built over it.

    ``cache_enabled`` (constructor argument and read/write property) is
    the one switch for cross-query caching.
    """

    def __init__(
        self,
        ts: TypeSystem,
        name: str = "workspace",
        config: Optional[EngineConfig] = None,
        project: Optional[Project] = None,
        cache_enabled: Optional[bool] = None,
        engine: Optional[CompletionEngine] = None,
    ) -> None:
        self.name = name
        self.ts = ts
        if engine is not None:
            # a pre-built engine (e.g. restored from a pack by
            # :mod:`repro.pack`) carries its own config; ``config`` is
            # ignored, ``cache_enabled`` still applies via the property
            self.engine = engine
        else:
            if cache_enabled is not None:
                from dataclasses import replace

                config = replace(config or EngineConfig(),
                                 enable_cache=cache_enabled)
            self.engine = CompletionEngine(ts, config)
        self.project = project
        self._analysis: Optional[AbstractTypeAnalysis] = None
        if engine is not None and cache_enabled is not None:
            self.cache_enabled = cache_enabled

    # ------------------------------------------------------------------
    # constructors for the bundled universes
    # ------------------------------------------------------------------
    @classmethod
    def corpus_project(
        cls, project: Project, config: Optional[EngineConfig] = None
    ) -> "Workspace":
        return cls(project.ts, name=project.name, config=config,
                   project=project)

    #: the bundled universes behind the CLI's ``--universe`` flag:
    #: key -> (workspace name, corpus builder name)
    BUILTIN: Dict[str, tuple] = {
        "paint": ("paintdotnet", "build_paintdotnet"),
        "geometry": ("geometry", "build_geometry"),
        "bcl": ("mini-bcl", "build_system_core"),
    }

    @classmethod
    def builtin_key(cls, key: str) -> str:
        """``key`` when it names a bundled universe; otherwise the one
        unknown-universe :class:`ValueError` every surface reports."""
        if key not in cls.BUILTIN:
            raise ValueError("unknown universe {!r}; choose one of: {}".format(
                key, ", ".join(sorted(cls.BUILTIN))))
        return key

    @classmethod
    def builtin(cls, key: str, config: Optional[EngineConfig] = None) -> "Workspace":
        name, builder_name = cls.BUILTIN[cls.builtin_key(key)]
        from ..corpus import frameworks

        ts = TypeSystem()
        getattr(frameworks, builder_name)(ts)
        return cls(ts, name=name, config=config)

    # ------------------------------------------------------------------
    # type / context helpers
    # ------------------------------------------------------------------
    def resolve_type(self, name: str) -> TypeDef:
        """Resolve a type by full name, unique simple name, or primitive
        keyword."""
        direct = self.ts.try_get(name)
        if direct is not None:
            return direct
        try:
            return self.ts.primitive(name)
        except KeyError:
            pass
        matches = [t for t in self.ts.all_types() if t.name == name]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValueError("unknown type {!r}".format(name))
        raise ValueError(
            "ambiguous type {!r}: {}".format(
                name, ", ".join(t.full_name for t in matches)
            )
        )

    def context(
        self,
        locals: Optional[Dict[str, TypeDef]] = None,
        this_type: Optional[TypeDef] = None,
    ) -> Context:
        return Context(self.ts, locals=locals, this_type=this_type)

    # ------------------------------------------------------------------
    # batched queries and the cross-query cache
    # ------------------------------------------------------------------
    def complete_many(self, requests):
        """Run a batch of :class:`~repro.engine.completer.CompletionRequest`
        objects against this workspace's engine — indexes are warmed once
        and every query in the batch shares the cross-query cache."""
        return self.engine.complete_many(requests)

    def cache_stats(self) -> Optional[dict]:
        """Hit/miss counters of the engine's cross-query cache, or
        ``None`` when it is disabled."""
        return self.engine.cache_stats()

    @property
    def cache_enabled(self) -> bool:
        """Whether cross-query caching is live (the REPL's
        ``:cache on/off``).

        Disabling both stops new lookups *and* clears the current
        entries, so re-enabling starts from a cold, trustworthy cache.
        """
        return self.engine.config.enable_cache

    @cache_enabled.setter
    def cache_enabled(self, enabled: bool) -> None:
        self.engine.config = dataclasses.replace(
            self.engine.config, enable_cache=enabled)
        if not enabled:
            self.engine.cache.clear()

    def metrics(self) -> dict:
        """JSON-ready snapshot of the engine's observability registry
        (``repro stats`` and the REPL's ``:stats``)."""
        return self.engine.metrics.to_dict()

    # ------------------------------------------------------------------
    # structured run logging
    # ------------------------------------------------------------------
    @property
    def run_log(self):
        """The engine's attached :class:`~repro.obs.runlog.RunLog`, or
        ``None``.  While attached, every query this workspace answers
        appends a structured NDJSON record (docs/OBSERVABILITY.md)."""
        return self.engine.run_log

    @run_log.setter
    def run_log(self, log) -> None:
        self.engine.run_log = log

    def start_run_log(self, label: Optional[str] = None,
                      seed: Optional[int] = None):
        """Attach a fresh run log whose manifest records this
        workspace's provenance — engine config signature, universe
        version, git SHA — and return it.  Detach with
        ``workspace.run_log = None``."""
        from ..obs.runlog import RunLog, signature_hex

        log = RunLog(
            label or self.name,
            config_signature=signature_hex(self.engine._config_signature()),
            universes={self.name: self.ts.version},
            seed=seed,
        )
        self.engine.run_log = log
        return log

    # ------------------------------------------------------------------
    # diagnostics and impact queries
    # ------------------------------------------------------------------
    def lint(self, sanitize: bool = False) -> List[Diagnostic]:
        """Static diagnostics for this workspace's universe.

        Runs the code-model lint (``RA00x``) against the live engine's
        method index (so index staleness is caught, not masked by a fresh
        rebuild), then the dependency-analysis lint (``RA10x``: god
        types, cycles outside the subtype lattice, cache blast radius,
        fingerprint drift) against the engine's dependency graph and
        live cache; with ``sanitize=True`` also runs the
        stream-invariant probe queries (``RA030``).  See
        ``docs/ANALYSIS.md``.
        """
        from ..analysis.codemodel_lint import lint_type_system
        from ..analysis.deps import lint_dependencies
        from ..analysis.sanitize import run_sanitizer_probes

        diagnostics = lint_type_system(
            self.ts, index=self.engine.index, project=self.project
        )
        diagnostics = diagnostics + lint_dependencies(
            self.ts, graph=self.engine.dependency_graph(),
            cache=self.engine.cache,
        )
        if sanitize:
            diagnostics = diagnostics + run_sanitizer_probes(self.engine)
        return diagnostics

    def impact(self, type_names):
        """Answer "which completion state can editing these types touch?"
        — an :class:`~repro.analysis.deps.ImpactReport` over the engine's
        dependency graph and live cache (``repro impact`` and the REPL's
        ``:impact``)."""
        return self.engine.impact(type_names)

    # ------------------------------------------------------------------
    # abstract types (when a corpus project backs the workspace)
    # ------------------------------------------------------------------
    def analysis(self) -> Optional[AbstractTypeAnalysis]:
        if self.project is None:
            return None
        if self._analysis is None:
            self._analysis = AbstractTypeAnalysis(self.project)
        return self._analysis

    def oracle_for(self, impl: MethodImpl) -> Optional[AbstractTypeOracle]:
        analysis = self.analysis()
        if analysis is None:
            return None
        return ImplAbstractTypes(analysis, impl)

    def impls(self) -> List[MethodImpl]:
        if self.project is None:
            return []
        return list(self.project.impls)
