"""Test-support utilities shipped with the library (fault injection)."""

from .faults import (
    FaultError,
    FaultPlan,
    QUERY_SITES,
    SITES,
    active_plan,
    fire,
    inject,
    install,
    uninstall,
)

__all__ = [
    "FaultError",
    "FaultPlan",
    "QUERY_SITES",
    "SITES",
    "active_plan",
    "fire",
    "inject",
    "install",
    "uninstall",
]
