"""Layer tracer: spans at the boundaries between the ellcm modules.

The tracer wraps every public function of each layer module from outside the
package and installs the wrapper at every binding site: the defining module,
every ellcm module that imported the name directly (``monodromy.lax_L_quasi``,
``flow.eom``, ...), the package namespace, and module-level tables of
functions such as ``cli.EVAL_FUNCTIONS``.  Nothing inside ``src/`` changes.

A call is a span only when it enters a layer from another layer or from the
benchmark; calls inside one layer pass straight through.  A span's self time
is its duration minus the durations of its child spans, so the self times of
all layers plus the benchmark's own self time add up to the traced wall time.

Spans are kept in memory and written out once, by ``write_spans``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("elliptic", "painleve", "calogero", "flow", "monodromy", "verify",
          "cli")
BENCH = "bench"

#: Calls with Im tau below this count toward elliptic.us_per_call.small_tau.
SMALL_TAU_IM = 0.1


class _Frame:
    __slots__ = ("layer", "child", "span_id")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Span recorder plus the per-layer counters read from call arguments
    and results at the layer boundaries."""

    def __init__(self):
        self.stack = [_Frame(BENCH, 0)]
        self.spans = []          # (id, parent, layer, function, t0, t1, op)
        self.op = -1             # index of the benchmark operation running
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.taus = set()
        self.by_n = defaultdict(lambda: [0, 0.0])   # (fn, n) -> [calls, s]
        self._next_id = 1
        self._restore = []
        self._t_start = None
        self.wall_s = 0.0        # traced wall time, summed over start/stop

    # -- installation ---------------------------------------------------

    def install(self, package="ellcm"):
        """Wrap the public functions of every layer module that exists."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                try:
                    mod = __import__(f"{package}.{layer}",
                                     fromlist=["_"])
                except ImportError:
                    continue   # a layer a later refactor removed
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == package
                                   or mname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._set(vars(mod), attr, originals[id(val)][1], val)
                elif isinstance(val, dict):
                    self._patch_table(val, originals)
        return self

    def _patch_table(self, table, originals):
        for key, val in list(table.items()):
            if id(val) in originals and originals[id(val)][0] is val:
                self._set(table, key, originals[id(val)][1], val)
            elif isinstance(val, tuple) and any(
                    id(v) in originals and originals[id(v)][0] is v
                    for v in val):
                new = tuple(originals[id(v)][1]
                            if id(v) in originals and originals[id(v)][0] is v
                            else v for v in val)
                self._set(table, key, new, val)

    def _set(self, namespace, key, new, old):
        namespace[key] = new
        self._restore.append((namespace, key, old))

    def uninstall(self):
        for namespace, key, old in reversed(self._restore):
            namespace[key] = old
        self._restore.clear()

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, fn, layer, name):
        stack = self.stack
        clock = time.perf_counter
        on_enter, on_exit = self._hooks(fn, layer, name)
        # transports are counted on every call, also from inside the layer
        always = ("monodromy.transports"
                  if (layer, name) == ("monodromy", "transport") else None)

        def wrapper(*args, **kwargs):
            if always is not None:
                self.counts[always] += 1
            caller = stack[-1]
            if caller.layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer, self._next_id)
            self._next_id += 1
            state = on_enter(caller.layer, args, kwargs) if on_enter else None
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                caller.child += dur
                self.self_s[layer] += dur - frame.child
                self.calls[layer] += 1
                self.spans.append((frame.span_id, caller.span_id, layer,
                                   name, t0, t1, self.op))
                if on_exit is not None:
                    on_exit(caller.layer, args, kwargs, result, state, dur)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, fn, layer, name):
        """Per-layer argument/result readers, or (None, None)."""
        counts = self.counts
        if layer == "elliptic":
            idx, pname = _param_index(fn, ("tm", "tau"))
            if idx is None:
                return None, None

            def exit_elliptic(caller, args, kwargs, result, state, dur):
                x = args[idx] if len(args) > idx else kwargs.get(pname)
                if x is None:
                    return
                tau = complex(getattr(x, "tau", x))
                self.taus.add(tau)
                if tau.imag < SMALL_TAU_IM:
                    counts["elliptic.small_tau_calls"] += 1
                    counts["elliptic.small_tau_s"] += dur
            return None, exit_elliptic

        if layer == "calogero":
            def exit_calogero(caller, args, kwargs, result, state, dur):
                n = _body_count(args, kwargs)
                if n is None:
                    return
                counts["calogero.pairs"] += n * (n - 1)
                counts["calogero.inclusive_s"] += dur
                if name in ("eom", "lax_L_quasi"):
                    rec = self.by_n[(name, n)]
                    rec[0] += 1
                    rec[1] += dur
                if name == "lax_L_quasi":
                    counts["monodromy.L_builds"] += 1
                if name == "eom" and caller == "flow":
                    counts["flow.rhs_evals"] += 1
            return None, exit_calogero

        if layer == "painleve":
            def exit_painleve(caller, args, kwargs, result, state, dur):
                if name == "scalar_painleve_rhs" and caller == "flow":
                    counts["flow.rhs_evals"] += 1
            return None, exit_painleve

        if layer == "flow":
            if name == "integrate_segment":
                idx, pname = _param_index(fn, ("diag",))

                def diag_of(args, kwargs):
                    if idx is None:
                        return None
                    return args[idx] if len(args) > idx else kwargs.get(pname)

                def enter_segment(caller, args, kwargs):
                    d = diag_of(args, kwargs)
                    return (getattr(d, "steps_accepted", 0),
                            getattr(d, "steps_rejected", 0))

                def exit_segment(caller, args, kwargs, result, state, dur):
                    d = diag_of(args, kwargs)
                    if d is None:
                        return
                    who = "monodromy" if caller == "monodromy" else "flow"
                    counts[f"{who}.steps_accepted"] += (
                        d.steps_accepted - state[0])
                    counts[f"{who}.steps_rejected"] += (
                        d.steps_rejected - state[1])
                    counts[f"{who}.truncated"] += bool(d.truncated)
                return enter_segment, exit_segment

            def exit_flow(caller, args, kwargs, result, state, dur):
                d = getattr(result, "diagnostics", None)
                if d is None:
                    return
                counts["flow.steps_accepted"] += d.steps_accepted
                counts["flow.steps_rejected"] += d.steps_rejected
                counts["flow.truncated"] += bool(d.truncated)
            return None, exit_flow

        if layer == "verify":
            def exit_verify(caller, args, kwargs, result, state, dur):
                if isinstance(result, list):
                    passed = [getattr(r, "passed", None) for r in result]
                    counts["verify.checks"] += sum(p is not None
                                                   for p in passed)
                    counts["verify.checks_failed"] += sum(p is False
                                                          for p in passed)
            return None, exit_verify

        return None, None

    # -- accounting -----------------------------------------------------

    def start(self):
        self._t_start = time.perf_counter()
        self.stack[0].child = 0.0

    def stop(self):
        """Close the traced interval; returns its wall time."""
        wall = time.perf_counter() - self._t_start
        self.self_s[BENCH] += wall - self.stack[0].child
        self.stack[0].child = 0.0
        self.wall_s += wall
        return wall

    def merge_child(self, summary, wall, op):
        """Fold in the summary of a traced child process that ran for
        ``wall`` seconds as one cli-layer span of the benchmark.  Interpreter
        start-up and import in the child count as cli self time."""
        other = sum(s for layer, s in summary["self_s"].items()
                    if layer != "cli")
        for layer, s in summary["self_s"].items():
            if layer != "cli":
                self.self_s[layer] += s
        self.self_s["cli"] += wall - other
        self.stack[-1].child += wall
        for layer, c in summary["calls"].items():
            self.calls[layer] += c
        self.counts["cli.commands"] += 1
        for key, v in summary["counts"].items():
            self.counts[key] += v
        for tau in summary["taus"]:
            self.taus.add(complex(*tau))
        for (fn, n, c, s) in summary["by_n"]:
            rec = self.by_n[(fn, n)]
            rec[0] += c
            rec[1] += s
        base = self._next_id
        self._next_id += len(summary["spans"]) + 1
        t1 = time.perf_counter()
        self.spans.append((base, self.stack[-1].span_id, "cli", "<process>",
                           t1 - wall, t1, op))
        for (sid, parent, layer, name, t0, t1c, _) in summary["spans"]:
            self.spans.append((base + sid, base + parent, layer, name, t0, t1c,
                               op))

    def summary(self):
        """Plain-data aggregate, as a traced child hands it to its parent."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "taus": [[t.real, t.imag] for t in self.taus],
            "by_n": [[fn, n, c, s] for (fn, n), (c, s) in self.by_n.items()],
            "spans": self.spans,
        }

    def write_spans(self, path):
        """One tab-separated line per span; times are perf_counter seconds
        (child-process spans use the child's clock)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tlayer\tfunction\tstart_s\tend_s\top\n")
            for sid, parent, layer, name, t0, t1, op in self.spans:
                fh.write(f"{sid}\t{parent}\t{layer}\t{name}\t{t0:.9f}\t"
                         f"{t1:.9f}\t{op}\n")


def _param_index(fn, names):
    """Position and name of the first parameter of fn called one of names."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None, None
    for i, p in enumerate(params):
        if p in names:
            return i, p
    return None, None


def _body_count(args, kwargs):
    for x in list(args[:2]) + list(kwargs.values()):
        n = getattr(x, "n", None)
        if isinstance(n, int):
            return n
    return None
