"""The benchmark tracer patches isograph functions by name from outside
src/; every name it looks up must still resolve the way it resolves them.

The tracer module is only read here (its SPANS table); `install()` is never
called, because it patches the isograph modules process-wide."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import isograph.cli  # noqa: F401  (loads every submodule, as install() does)

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "isograph"

# names install() patches directly, with the positional arguments its
# wrapper forwards
DIRECT = {
    ("fields", "Field.mul_t"): 3,
    ("curves", "EllipticCurve.random_point"): 2,
    ("enhanced", "GraphBuilder.__init__"): None,  # forwards *args, **kwargs
    ("enhanced", "GraphBuilder.push_subgroup"): 5,
    ("cli", "load_graph_file"): 1,
    ("cli", "write_graph_file"): None,  # forwards path, *args
    ("supersingular", "build_class_table"): 1,
}


def _tracer_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def _resolve(modname, qualname):
    """The object install() wraps: a module attribute, or vars(cls)[meth]
    for a method (so the method must be defined on that class itself)."""
    mod = sys.modules[f"isograph.{modname}"]
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        return vars(getattr(mod, cls_name))[meth]
    return getattr(mod, qualname)


@pytest.mark.parametrize("key", sorted(_tracer_spans()), ids=".".join)
def test_span_names_resolve(key):
    assert callable(_resolve(*key)), key


@pytest.mark.parametrize("key", sorted(DIRECT), ids=".".join)
def test_directly_patched_names_resolve(key):
    fn = _resolve(*key)
    assert callable(fn), key
    arity = DIRECT[key]
    if arity is not None:
        inspect.signature(fn).bind(*range(arity))


def _call_sites(name):
    """(file, line, call) for every call in src/ of `name` as a bare name
    or as an attribute (a method, or a function read off its module)."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if called == name:
                    sites.append((path.name, node.lineno, node))
    return sites


@pytest.mark.parametrize(
    "key", sorted(k for k, arity in DIRECT.items() if arity is not None), ids=".".join
)
def test_call_sites_match_the_wrapper_arity(key):
    # the fixed-arity wrappers take exactly their positional arguments, so
    # a call with another count, a keyword or an unpacking would fail only
    # in a traced run; for a method the arity counts self
    _, qualname = key
    name = qualname.split(".")[-1]
    positional = DIRECT[key] - ("." in qualname)
    sites = _call_sites(name)
    assert sites, f"no call of {name} in src/"
    for file, line, call in sites:
        shape = (
            len(call.args),
            any(isinstance(a, ast.Starred) for a in call.args),
            len(call.keywords),
        )
        assert shape == (positional, False, 0), f"{file}:{line} calls {name}"
