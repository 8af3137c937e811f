"""Outside-in tracing of the ripr package.

The tracer wraps the public functions of every ripr module, plus the two
hot methods `SparseRow.dot` and `Colouring.colour`, from outside the
package.  Each wrapped name is replaced wherever it is looked up: a module
global in any ripr module that holds the same function object (so names
imported by value, such as `search.block_tuples` or `colourings.top_digits`,
are patched too), or the class attribute for methods.

Calls listed in SPANS are recorded one span each (name, start, end, parent,
request, self time).  Every other wrapped call runs up to millions of times
per request, so it is aggregated into a count, a total time and a self time
per name.  Self time is a call's duration minus the time covered by the
wrapped calls made inside it.  Spans stay in memory until `write` is called.

The tracer keeps one call stack, so it assumes the traced code runs on one
thread.
"""

import inspect
import json
import time
import types

# Wrapped calls that get one span each; they are the entry points of each
# layer and run a handful of times per request.
SPANS = {
    "cli.main", "cli.run",
    "search.find_monochromatic", "search.forcing_bound",
    "search.find_dominated_assignment", "search.check_separation",
    "search.translate_witness", "search.certify_ipr",
    "search.is_rapid", "search.make_rapid",
}

# Methods wrapped in addition to the module-level public functions.
METHODS = (("ratcore", "SparseRow", "dot"), ("colourings", "Colouring", "colour"))


class Tracer:
    def __init__(self, modules):
        """modules maps a short module name ("search") to the imported module."""
        self.modules = modules
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.layer_s = {}  # layer -> time inside its outermost calls
        self.layer_calls = {}  # layer -> number of its outermost calls
        self.spans = []
        self.items = {}  # generator name -> items yielded
        self.rows_built = 0
        # Colouring -> [x seen, colours seen, gap cutoff or None, evals above it]
        self.colourings = {}
        self.request = None
        self._stack = []  # open calls: [child seconds, span id, parent span id]
        self._depth = {}
        self._restore = []
        self._next_span = 0

    # -- patching -----------------------------------------------------------

    def targets(self):
        """(name, layer, owner, attribute, original) for every wrapped callable."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                out.append(("%s.%s" % (layer, attr), layer, mod, attr, obj))
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            out.append(("%s.%s.%s" % (layer, cls_name, attr), layer, cls, attr,
                        vars(cls)[attr]))
        return out

    def patch(self):
        for name, layer, owner, attr, fn in self.targets():
            wrapper = self._wrap(name, layer, fn)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in self.modules.values():
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._set(mod, key, wrapper)

    def unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, layer, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_s.setdefault(layer, 0.0)
        self.layer_calls.setdefault(layer, 0)
        self._depth.setdefault(layer, 0)
        keep_span = name in SPANS
        observe = None
        if name == "colourings.Colouring.colour":
            observe = self._observe_colour
        elif layer == "matgen":
            observe = self._observe_matrix

        def enter():
            stack = self._stack
            parent = stack[-1][1] if stack else None
            span = parent
            if keep_span:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span, parent]
            stack.append(frame)
            self._depth[layer] += 1
            return frame

        def leave(frame, start, end):
            stack = self._stack
            stack.pop()
            self._depth[layer] -= 1
            duration = end - start
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if not self._depth[layer]:
                self.layer_s[layer] += duration
                self.layer_calls[layer] += 1
            if keep_span:
                self.spans.append({
                    "id": frame[1], "parent": frame[2], "request": self.request,
                    "name": name, "start": start, "end": end,
                    "self_s": duration - frame[0],
                })

        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, start, time.perf_counter())
                    self.items[name] = self.items.get(name, 0) + 1
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            frame = enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start, time.perf_counter())
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _observe_colour(self, args, colour):
        col, x = args
        seen = self.colourings.get(col)
        if seen is None:
            cutoff = None
            if col.kind == "notrapid":
                cutoff = col.params["p"] ** 4
            seen = self.colourings[col] = [set(), set(), cutoff, 0]
        xs = seen[0]
        if x not in xs:
            xs.add(x)
            seen[1].add(colour)
            if seen[2] is not None and x > seen[2]:
                seen[3] += 1

    def _observe_matrix(self, args, result):
        if not self._depth["matgen"] and hasattr(result, "rows"):
            self.rows_built += len(result.rows)

    # -- spans around the benchmark's own requests --------------------------

    def run_request(self, request_id, call):
        """Run call() under a root span named "request"."""
        self.request = request_id
        frame = [0.0, self._next_span, None]
        self._next_span += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": frame[1], "parent": None, "request": request_id,
                "name": "request", "start": start, "end": end,
                "self_s": end - start - frame[0],
            })
            self.request = None

    # -- results ------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, prefix):
        """Summed self time of every wrapped name starting with prefix."""
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def colour_evals(self):
        return sum(len(s[0]) for s in self.colourings.values())

    def distinct_colours(self):
        return sum(len(s[1]) for s in self.colourings.values())

    def gap_evals(self):
        """Gap-colour evaluations above the colouring's small-value cutoff."""
        return sum(s[3] for s in self.colourings.values())

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["calls"] = {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                        for n, s in sorted(self.stats.items()) if s[0]}
        doc["generator_items"] = self.items
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
