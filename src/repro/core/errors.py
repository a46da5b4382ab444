"""Structured exceptions raised by the robot-system core."""
from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidConfigurationError",
]


class ReproError(Exception):
    """Base class for all library-specific exceptions."""


class InvalidConfigurationError(ReproError, ValueError):
    """A configuration violates a structural requirement.

    Raised for example when a configuration is asked to contain a duplicate
    robot node, or when a seven-robot operation is applied to a configuration
    of a different size.
    """

