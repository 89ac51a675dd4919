"""The names the benchmark in ``perfbench/`` calls must exist in the package.

The workloads call ``fk.<name>`` on the imported package and the tracer
counts calls by ``"<layer>.<function>"``.  A deleted or renamed name
would break a benchmark pass or turn a counter into None, so both files
are read here (and left unchanged) and every name they use is resolved.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import flatknots
import flatknots.cli  # noqa: F401  (the workloads call fk.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attribute_chains(tree, root):
    """Dotted names such as ``cli.main`` read off ``root`` in the tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == root:
            yield ".".join(reversed(chain))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_package_name_the_workloads_use_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = set(_attribute_chains(tree, "fk"))
    assert chains, "the workloads no longer call the package as fk"
    missing = []
    for dotted in sorted(chains):
        try:
            _resolve(flatknots, dotted)
        except AttributeError:
            missing.append(dotted)
    assert not missing, f"perfbench/workloads.py uses missing names: {missing}"


def test_every_function_the_tracer_counts_exists():
    tracer = _load_tracer()
    missing = []
    for name in sorted({*tracer.CALL_COUNTS, *tracer.OBSERVERS, *tracer.SPANNED}):
        layer, function = name.split(".")
        module = importlib.import_module(f"flatknots.{layer}")
        found = getattr(module, function, None)
        if not tracer._is_public_function(function, found, module.__name__):
            missing.append(name)
    for layer, helper in tracer.CACHES.values():
        module = importlib.import_module(f"flatknots.{layer}")
        if not hasattr(getattr(module, helper, None), "cache_info"):
            missing.append(f"{layer}.{helper}")
    assert not missing, f"perfbench/tracer.py counts missing functions: {missing}"
