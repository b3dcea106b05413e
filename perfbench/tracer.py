"""Spans around hopfcheck's public functions, installed from outside.

`Tracer.install()` replaces each public function of the layer modules by a
timing wrapper, in its defining module and in every hopfcheck module that
bound it with `from .x import f`, and wraps the listed methods on their
classes.  `uninstall()` puts every original back.  The program itself is
not edited.

Self time is a span's duration minus the time its child spans cover.
Cache hits are read before the call, from the attributes the program
consults: `H._pw_cache` for `peter_weyl`, `Q.meta["cosets"]` for
`coset_algebras`.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "linalg",
    "hopf",
    "splitting",
    "corep",
    "subgroup",
    "structure",
    "serialize",
    "constructions",
    "catalog",
    "cli",
)

# Per-scalar and per-vector helpers: called millions of times, they would
# cost more to trace than they cost to run.  The scalar layer (`cyclotomic`)
# is measured by the fixed kernels instead.
SKIP = {
    "linalg": {"zero_vec", "basis_vec", "add_vec", "sub_vec", "scale_vec", "dot_vec",
               "tensor_vec", "is_zero_vec"},
    "splitting": {"dual_product", "dual_unit"},
    "serialize": {"scalar_to_json", "scalar_from_json"},
}

METHODS = {
    "linalg": {
        "Matrix": ("rref", "rank", "kernel", "image", "row_space"),
        "Subspace": ("from_vectors", "intersect", "sum_with", "map_by"),
    },
    "corep": {"Corepresentation": ("verify",)},
}


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _modules():
    pkg = importlib.import_module("hopfcheck")
    mods = {name: importlib.import_module("hopfcheck." + name) for name in LAYERS}
    return pkg, mods


def _arg(fn, args, kwargs, name, default=None):
    """Value of parameter `name` in a call, as the callee would see it."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return default
    bound.apply_defaults()
    return bound.arguments.get(name, default)


def _pw_hit(fn, args, kwargs, stat):
    H = _arg(fn, args, kwargs, "H")
    if (
        not _arg(fn, args, kwargs, "force_recompute", False)
        and not _arg(fn, args, kwargs, "gauge", 0)
        and getattr(H, "_pw_cache", None) is not None
    ):
        stat.add("cache_hits", 1)


def _coset_hit(fn, args, kwargs, stat):
    Q = _arg(fn, args, kwargs, "Q")
    if Q is not None and Q.meta.get("cosets") is not None:
        stat.add("cache_hits", 1)


def _kernel_cells(fn, args, kwargs, stat):
    M = args[0]
    stat.add("cells", M.nrows * M.ncols)


def _masks_after(fn, args, kwargs, stat):
    P = _arg(fn, args, kwargs, "P")
    if P is None:
        P = getattr(_arg(fn, args, kwargs, "H"), "_pw_cache", None)
    if P is not None:
        stat.add("masks", 1 << len(P.coreps))


BEFORE = {
    "corep.peter_weyl": _pw_hit,
    "subgroup.coset_algebras": _coset_hit,
    "linalg.Matrix.kernel": _kernel_cells,
}
AFTER = {"structure.enumerate_hopf_subalgebras": _masks_after}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.root_s = 0.0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        before = BEFORE.get(name)
        after = AFTER.get(name)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                before(fn, args, kwargs, stat)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
            if after is not None:
                after(fn, args, kwargs, stat)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        return span

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        pkg, mods = _modules()
        wrappers = {}
        for short, mod in mods.items():
            skip = SKIP.get(short, ())
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrappers[value] = self._wrap(short + "." + attr, value)
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for short, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(mods[short], cls_name)
                for attr in names:
                    raw = cls.__dict__[attr]
                    name = "%s.%s.%s" % (short, cls_name, attr)
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patch(cls, attr, new)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def snapshot():
    """Every function-valued attribute the tracer may touch, for restore checks."""
    pkg, mods = _modules()
    out = {}
    for mod in (pkg, *mods.values()):
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) or inspect.isclass(value):
                out[(mod.__name__, attr)] = value
    for short, classes in METHODS.items():
        for cls_name, names in classes.items():
            cls = getattr(mods[short], cls_name)
            for attr in names:
                out[(mods[short].__name__, cls_name, attr)] = cls.__dict__[attr]
    return out
