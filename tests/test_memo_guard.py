"""No module keeps a hand-rolled cache: identity memos are ``Memo``\\ s.

Scans every module under ``src/repro`` for a module-level ``_NAME``
bound to an empty ``{}``, ``dict()``, ``OrderedDict()`` or ``set()``.
Each one must be a value-keyed registry named here with its reason;
anything keyed by object identity belongs in a registered
:class:`repro.util.memo.Memo` (bounded, pinning, visible in
``repro stats``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: module:name -> why it is not a Memo.
REGISTRIES = {
    "repro.api:_SESSIONS": "sessions by their config tuple",
    "repro.arch.registry:_INSTANCES": "one instance per registered architecture name",
    "repro.arch.hetero:_HETERO_BUILDERS": "builders by registered chip name",
    "repro.arch.hetero:_HETERO_CACHE": "one instance per registered chip name",
    "repro.check.goldens:_FINGERPRINT_CACHE": "the one model fingerprint, by its constants and hetero JSON",
    "repro.fleet.perfmodel:_MODELS": "perf models by (architectures, workloads) names",
    "repro.workloads.catalog:_CATALOG": "the workload catalog by name",
}

_EMPTY_CALLS = {"dict", "OrderedDict", "set"}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _EMPTY_CALLS
    return False


def module_caches():
    """``module:name`` of every module-level ``_NAME = <empty container>``."""
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.startswith("_")
                        and _is_empty_container(value)):
                    found.add(f"{module}:{target.id}")
    return found


def test_no_hand_rolled_caches():
    assert module_caches() - set(REGISTRIES) == set()


def test_every_allowed_registry_exists():
    assert set(REGISTRIES) - module_caches() == set()
