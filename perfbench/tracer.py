"""Spans around the calls into each gfkernel layer, recorded from outside.

The tracer swaps module attributes in this process only and puts them back
on :meth:`Tracer.uninstall`.  ``_corepy`` resolves its globals at call time,
so calls from one core function into another are caught as well.  A call
opens a span only when it crosses a layer boundary: a specfn function
called from specfn, or an engine called from an engine, runs inside its
caller's span, so self times split cleanly between layers.

Each span is (name, start, end, parent, op id); they are kept in compact
arrays and written out by :meth:`Tracer.save`.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# layer, group -> core functions (gfkernel._corepy attributes)
CORE_GROUPS = {
    ("specfn", "specfn.bessel"): ("normalized_bessel_j", "bessel_j"),
    ("specfn", "specfn.hyp2f1"): ("hyp2f1",),
    ("specfn", "specfn.other"): ("log_abs_gamma", "gammafn", "rgamma", "sinpi", "digamma",
                                 "gauss_series", "legendre_p", "legendre_q_phase_free",
                                 "gegenbauer"),
    ("macdonald", "macdonald"): ("r_band_core", "r_outer_core", "r_band", "r_outer",
                                 "r_gegenbauer_band"),
}
MODULE_GROUPS = {
    "macdonald": ("macdonald", ("r_kernel", "r_kernel_gegenbauer")),
    "genkernel": ("genkernel", ("Params", "b_kernel", "m_const", "delta_density")),
}
ENGINES = {
    "integrate_singular_band2": "quadrature.singular_band",
    "integrate_singular_band": "quadrature.singular_band",
    "integrate_power_tail": "quadrature.power_tail",
    "integrate_bessel_oscillatory": "quadrature.bessel_oscillatory",
}
INTEGRAND = "harness.integrand"
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.ok = array("b")
        self.evals: dict[int, int] = {}       # engine span -> IntegralResult.evaluations
        self._stack = [-1]
        self._layers: list[str | None] = [None]
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, layer: str) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.ok.append(1)
        self._stack.append(i)
        self._layers.append(layer)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, ok: bool) -> None:
        self.end[i] = time.perf_counter()
        if not ok:
            self.ok[i] = 0
        self._stack.pop()
        self._layers.pop()

    def wrap(self, fn, name: str, layer: str, engine: bool = False):
        """fn with a span named ``name`` around each call from another layer."""
        nid = self._nid(name)
        layers = self._layers

        def traced(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            if engine:
                # the integrand handed over by the caller is harness glue
                args = (self.wrap(args[0], INTEGRAND, "harness"),) + args[1:]
            i = self._open(nid, layer)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                self._close(i, False)
                raise
            self._close(i, True)
            if engine:
                self.evals[i] = res.evaluations
            return res

        return traced

    def run_op(self, op_id: int, fn, *args):
        """fn(*args) as one op: a top-level span that the layers nest under."""
        self.op_id = op_id
        i = self._open(self._nid(OP), "bench")
        try:
            return fn(*args)
        except BaseException:
            self.ok[i] = 0
            raise
        finally:
            self._close(i, bool(self.ok[i]))

    # -- installing ----------------------------------------------------------

    def _swap(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        """Patch the core, the public layer functions and the names the other
        modules imported from them."""
        from gfkernel import cli, genkernel, harness, macdonald, quadrature, selfcheck
        from gfkernel._backend import core

        mods = {"macdonald": macdonald, "genkernel": genkernel}
        users = (harness, cli, selfcheck, genkernel, macdonald, quadrature)
        for (layer, group), fns in CORE_GROUPS.items():
            for fn in fns:
                self._swap(core, fn, self.wrap(getattr(core, fn), group, layer))
        for group, (modname, fns) in MODULE_GROUPS.items():
            for fn in fns:
                original = getattr(mods[modname], fn)
                traced = self.wrap(original, group, group)
                for mod in users:
                    if getattr(mod, fn, None) is original:
                        self._swap(mod, fn, traced)
        for fn, group in ENGINES.items():
            original = getattr(quadrature, fn)
            traced = self.wrap(original, group, "quadrature", engine=True)
            for mod in users:
                if getattr(mod, fn, None) is original:
                    self._swap(mod, fn, traced)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, old = self._saved.pop()
            setattr(module, attr, old)

    # -- results -------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32), ok=np.frombuffer(self.ok, dtype=np.int8))

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Counts and self times per layer over everything recorded, as
        {metric name: (value, unit)}."""
        name, parent, dur, self_t = self.arrays()
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(group):
            return name == ids[group] if group in ids else np.zeros(len(name), dtype=bool)

        def calls_and_self(*groups):
            mask = np.zeros(len(name), dtype=bool)
            for g in groups:
                mask |= sel(g)
            return int(mask.sum()), float(self_t[mask].sum())

        m: dict[str, tuple[float, str]] = {}
        for group in ("specfn.bessel", "specfn.hyp2f1"):
            calls, st = calls_and_self(group)
            m[f"{group}.calls"] = (calls, "count")
            m[f"{group}.self_s"] = (st, "s")
        calls, st = calls_and_self("macdonald")
        m["macdonald.calls"] = (calls, "count")
        m["macdonald.us_per_call"] = (1e6 * st / max(calls, 1), "us")
        calls, st = calls_and_self("genkernel")
        m["genkernel.calls"] = (calls, "count")
        m["genkernel.self_s"] = (st, "s")

        ok = np.frombuffer(self.ok, dtype=np.int8).astype(bool)
        engine_self = 0.0
        failures = 0
        for group in sorted(set(ENGINES.values())):
            mask = sel(group)
            m[f"{group.replace('quadrature.', 'quadrature.segments.')}"] = (int(mask.sum()), "count")
            failures += int((mask & ~ok).sum())
            engine_self += float(self_t[mask & ok].sum())
        evals = sum(self.evals.values())
        m["quadrature.evals"] = (evals, "count")
        m["quadrature.evals_per_op"] = (evals / max(n_ops, 1), "count")
        m["quadrature.self_us_per_eval"] = (1e6 * engine_self / max(evals, 1), "us")
        m["quadrature.failures"] = (failures, "count")

        calls, st = calls_and_self(INTEGRAND)
        m["harness.integrand_us_per_eval"] = (1e6 * st / max(calls, 1), "us")
        # share of macdonald calls made inside a quadrature integrand
        integrand = sel(INTEGRAND)
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        inside = np.zeros(len(name), dtype=bool)
        while True:                         # one level of nesting per round
            nxt = has_parent & (integrand[up] | inside[up])
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        mac = sel("macdonald")
        m["harness.node_call_share"] = (float(inside[mac].sum()) / max(int(mac.sum()), 1), "ratio")
        return m
