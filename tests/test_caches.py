"""Every cache in the package is bounded."""

import importlib
import pkgutil

import flatknots


def test_every_package_cache_has_a_finite_maxsize():
    cached = {}
    for info in pkgutil.iter_modules(flatknots.__path__):
        module = importlib.import_module(f"flatknots.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                cached[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert cached, "no cached function found"
    unbounded = sorted(name for name, maxsize in cached.items() if maxsize is None)
    assert not unbounded, f"unbounded caches: {unbounded}"
