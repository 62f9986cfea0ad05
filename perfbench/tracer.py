"""Span recorder that wraps the public functions of each detclust module.

Every public module-level function of the traced modules is replaced by a
wrapper that times the call and subtracts the time of wrapped calls made
inside it (self time). The wrapper is installed under every name that
refers to the original function in any detclust module, so a call made
through ``from .x import f`` (for example rings -> bicriteria) is seen as
well. Nothing inside the package is edited; ``uninstall`` restores every
name.

Besides calls and self time, a few functions carry counters read from
their arguments or return values (candidates generated, rows kept, bytes
written, ...); see ``_OBSERVERS``.
"""

import importlib
import inspect
import os
import pkgutil
import time

TRACED_MODULES = (
    "bicriteria",
    "epsapprox",
    "rings",
    "solve",
    "geometry",
    "summation",
    "partition",
    "dimreduce",
    "linmap",
    "io",
    "cli",
)


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


def _result_of(res):
    # full_output variants return (result, extra)
    return res[0] if isinstance(res, tuple) else res


def _obs_candidates(res, bound, st):
    st.add("candidates", int(res.size))


def _obs_greedy(res, bound, st):
    r = _result_of(res)
    st.add("centers_added", int(r.centers.k - r.baseline_size))


def _obs_halving(res, bound, st):
    st.add("kept", int(res.indices.size))
    st.add("ground", int(res.ground_size))


def _obs_seeding(res, bound, st):
    st.add("centers", int(res.centers.k))


def _obs_rings(res, bound, st):
    st.add("main_rings", len(res.main_rings()))


def _obs_ring_coreset(res, bound, st):
    st.add("rows", int(res.size))


def _obs_verify(res, bound, st):
    st.add("tuples_checked", int(res.checked))


def _obs_solve(res, bound, st):
    r = _result_of(res)
    # bicriteria_solve counts polished initializations, not partitions
    if r.method != "bicriteria":
        st.add("partitions_examined", int(r.enumeration_stats))
    st.add("downgrades", int(r.downgraded))


def _obs_partition(res, bound, st):
    st.add("representatives", int(res.size))


def _obs_net(res, bound, st):
    st.add("net_points", int(res.points.shape[0]))


def _obs_jl(res, bound, st):
    cert = res.certificate or {}
    st.add("identity_fallbacks", int(cert.get("strategy") == "identity-fallback"))


def _obs_pairs(res, bound, st):
    st.add("pairs_checked", int(res[0]))


def _obs_file_bytes(res, bound, st):
    path = bound.arguments.get("path")
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        st.add("bytes", os.path.getsize(path))


_OBSERVERS = {
    "bicriteria.candidate_centers": _obs_candidates,
    "bicriteria.greedy_augment": _obs_greedy,
    "epsapprox.halving_approx": _obs_halving,
    "rings.greedy_seeding": _obs_seeding,
    "rings.ring_decompose": _obs_rings,
    "rings.ring_coreset": _obs_ring_coreset,
    "rings.verify_offset_coreset": _obs_verify,
    "solve.exact_solve": _obs_solve,
    "solve.approx_solve": _obs_solve,
    "partition.build": _obs_partition,
    "dimreduce.build_net": _obs_net,
    "dimreduce.derandomized_jl": _obs_jl,
    "linmap.pair_distortions": _obs_pairs,
}
for _name in ("read_points", "write_points", "read_coreset", "write_coreset",
              "read_sketch", "write_sketch"):
    _OBSERVERS[f"io.{_name}"] = _obs_file_bytes


def _package_modules():
    pkg = importlib.import_module("detclust")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mods.append(importlib.import_module(f"detclust.{info.name}"))
    return mods


class Tracer:
    """Wraps the traced functions while installed; one instance per run."""

    def __init__(self):
        self.stats = {}
        self._stack = []  # child seconds accumulated per active call
        self._patches = []  # (module, attribute, original)

    def _wrap(self, key, fn):
        st = self.stats.setdefault(key, FunctionStats())
        observer = _OBSERVERS.get(key)
        sig = inspect.signature(fn) if observer is not None else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if observer is not None:
                observer(res, sig.bind(*args, **kwargs), st)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _package_modules()
        replace = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"detclust.{short}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    replace[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self):
        for st in self.stats.values():
            st.calls = 0
            st.total_s = 0.0
            st.self_s = 0.0
            st.counters = {}

    def counts(self):
        """Everything that must repeat exactly: calls and counters."""
        return {
            key: {"calls": st.calls, **st.counters}
            for key, st in sorted(self.stats.items())
            if st.calls
        }

    def times(self):
        return {
            key: {"self_s": st.self_s, "total_s": st.total_s}
            for key, st in sorted(self.stats.items())
            if st.calls
        }
