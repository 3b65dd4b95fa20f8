"""Every module's ``__all__`` names real attributes, each once.

Wrappers that act on a module's public surface (tracing, docs) read
``__all__``, so a stale or repeated entry would break them silently.
"""

import importlib
import pkgutil

import pytest

import spectralfd


def _module_names() -> list[str]:
    names = [spectralfd.__name__]
    for info in pkgutil.walk_packages(spectralfd.__path__,
                                      spectralfd.__name__ + "."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _module_names())
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    public = module.__all__
    assert len(public) == len(set(public)), f"repeated entries in {name}"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"
