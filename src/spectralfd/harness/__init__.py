"""Experiment harness, imported by submodule: ``config``, ``experiments``,
``report`` and ``cli``.  The package itself exports nothing."""

__all__ = []
