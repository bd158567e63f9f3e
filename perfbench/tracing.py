"""Per-function call counts and self times, taken by wrapping module attributes.

The amphisense modules call each other through module attributes
(`magnetics.invert_flow_flux(...)`) and methods through their classes, and
both are looked up at call time.  Replacing the attribute with a timing
wrapper therefore catches every call made from outside the function,
including calls between functions of the same module.

Spans are aggregated in memory by (caller, callee) edge rather than kept one
by one: a swim run makes hundreds of thousands of calls.  Self time is a
span's duration minus the time covered by the wrapped calls it made.
"""

import functools
import inspect
import time


class Tracer:
    def __init__(self):
        self.stack = []    # open spans: [name, time spent in wrapped callees]
        self.edges = {}    # (caller name or "", callee name) -> [calls, total_s, self_s]

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self.stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else ""
            span = [name, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                acc = edges.get((caller, name))
                if acc is None:
                    acc = edges[(caller, name)] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - span[1]

        return traced

    def instrument(self, module):
        """Wrap the public functions of `module` and the public methods of its
        public classes.  Names are `<module>.<function>` and
        `<module>.<Class>.<method>`, with the package prefix dropped."""
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(module, attr, self.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, mname, self.wrap(f"{short}.{attr}.{mname}", meth))

    def per_function(self):
        """{name: {"calls", "total_s", "self_s"}} summed over callers."""
        out = {}
        for (_, name), (calls, total, self_s) in self.edges.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += calls
            acc["total_s"] += total
            acc["self_s"] += self_s
        return out

    def edge_list(self):
        return [
            {"caller": caller, "callee": callee, "calls": c, "total_s": t, "self_s": s}
            for (caller, callee), (c, t, s) in sorted(self.edges.items())
        ]
