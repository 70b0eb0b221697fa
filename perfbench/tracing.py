"""Runtime tracing of greenmat's layers from outside the package.

`Tracer.install(prog)` rebinds the public entry points of each greenmat
module to wrappers defined here; `uninstall()` puts the originals back.
A function imported by name into several modules is bound once per
module (``green.relate`` is also ``sampling.relate``,
``linear_maps.relate`` and ``verify.relate``), so every binding that
holds the original object is replaced, each by its own wrapper that
also counts calls through that binding.

Three kinds of wrapper keep the cost proportional to what is asked:

* span wrappers record one span per call (name, start, end, parent
  span, pass id, op id) in memory;
* leaf wrappers, for the hottest functions that call nothing traced
  (scalar add/mul, the `_tropfast` kernels), add their call count and
  time to an aggregate and to the enclosing span's leaf time;
* count wrappers only count calls.

Self time of a span is its duration minus its direct child spans and the
leaf time recorded under it.  Spans are written out once, by `dump`.
"""

from __future__ import annotations

import json
import time

# span record: [name, start, end, parent index, pass id, op id, leaf seconds, label, index]
_NAME, _START, _END, _PARENT, _LEAF, _LABEL = 0, 1, 2, 3, 6, 7

# (module, attribute, span name); green.relate/relate_witness are special-cased
SPAN_TARGETS = (
    ("verify", "run_suite", "verify.run_suite"),
    ("linear_maps", "check_preservation", "linear_maps.check_preservation"),
    ("linear_maps", "check_exchange", "linear_maps.check_exchange"),
    ("linear_maps", "find_sticky", "linear_maps.find_sticky"),
    ("linear_maps", "classify", "linear_maps.classify"),
    ("linear_maps", "synthesize", "linear_maps.synthesize"),
    ("linear_maps", "apply", "linear_maps.apply"),
    ("green", "factor_rank", "green.factor_rank"),
    ("matrix", "mat_mul", "matrix.mat_mul"),
    ("matrix", "matrix_from_json", "matrix.json_parse"),
    ("sampling", "related_pair", "sampling.related_pair"),
    ("sampling", "unrelated_pair", "sampling.unrelated_pair"),
    ("eggbox", "eggbox", "eggbox.build"),
    ("cli", "main", "cli.main"),
)
LEAF_TARGETS = (
    ("semiring", "add", "semiring.add"),
    ("semiring", "mul", "semiring.mul"),
    ("_tropfast", "leq_l", "tropfast.leq_l"),
    ("_tropfast", "apply_map", "tropfast.apply_map"),
)
COUNT_TARGETS = (
    ("_tropfast", "related", "tropfast.related"),
    ("_boolspace", "act_on_bits", "boolspace.act_on_bits"),
)
TABLE_PROPERTIES = (
    "leq_l_table", "leq_r_table", "l_table", "r_table", "h_table",
    "d_table", "leq_j_table", "j_table",
)
RELATE = "green.relate"
BOUNDED = "green.bounded_search"
TABLE_BUILD = "boolspace.table_build"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds]
        self.count: dict[str, int] = {}
        self.binding_calls: dict[str, int] = {}
        self.pass_id = 0
        self.op_id = 0
        self._undo: list = []

    # --- wrappers ----------------------------------------------------------

    def _span_call(self, name, fn, args, kwargs, label=None):
        stack = self.stack
        parent = stack[-1] if stack else None
        rec = [name, 0.0, 0.0, -1 if parent is None else parent[-1],
               self.pass_id, self.op_id, 0.0, label, len(self.spans)]
        self.spans.append(rec)
        stack.append(rec)
        rec[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[_END] = time.perf_counter()
            stack.pop()

    def span_wrapper(self, fn, name, binding):
        self.binding_calls.setdefault(binding, 0)
        calls = self.binding_calls
        on_result = None
        if name == "sampling.unrelated_pair":
            self.count.setdefault("sampling.none_returns", 0)

            def on_result(result):
                if result is None:
                    self.count["sampling.none_returns"] += 1

        label_of = None
        if name == "verify.run_suite":
            def label_of(args, kwargs):
                suite, params = args
                return f"{suite} {params.semifield.value} n={params.n}"

        def wrapper(*args, **kwargs):
            calls[binding] += 1
            label = label_of(args, kwargs) if label_of else None
            result = self._span_call(name, fn, args, kwargs, label)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def relate_wrapper(self, fn, binding, bounded_rels):
        """green.relate / relate_witness: one span per top-level decision.

        The recursive calls the deciders make on themselves (L through
        leqL, H through L and R, J through leqJ) merge into the open span,
        so calls count decisions, not recursion.  D/J/leqJ requests are
        the bounded search and get their own span name.
        """
        self.binding_calls.setdefault(binding, 0)
        calls = self.binding_calls

        def wrapper(a, b, rel):
            calls[binding] += 1
            name = BOUNDED if rel in bounded_rels else RELATE
            stack = self.stack
            if stack and stack[-1][_NAME] == name:
                return fn(a, b, rel)
            return self._span_call(name, fn, (a, b, rel), {})

        return wrapper

    def leaf_wrapper(self, fn, name):
        stat = self.leaf.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:  # every op the benchmark times opens a span first
                stack[-1][_LEAF] += dt
            return result

        return wrapper

    def count_wrapper(self, fn, name):
        self.count.setdefault(name, 0)
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def candidate_wrapper(self, fn):
        """Counts the intermediates a bounded D/J/leqJ search enumerates."""
        self.count.setdefault("green.bounded_search.candidates", 0)
        count = self.count

        def wrapper(*args, **kwargs):
            for m in fn(*args, **kwargs):
                count["green.bounded_search.candidates"] += 1
                yield m

        return wrapper

    # --- installation --------------------------------------------------------

    def _rebind(self, prog, module_name, attr, make):
        """Replace every greenmat module binding of module_name.attr."""
        original = getattr(getattr(prog, module_name), attr)
        for mod_name, mod in prog.modules.items():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, make(original, f"{mod_name}.{key}"))
                    self._undo.append((mod, key, original))

    def install(self, prog) -> None:
        bounded = prog.green.BOUNDED_SEARCH
        for attr in ("relate", "relate_witness"):
            self._rebind(prog, "green", attr,
                         lambda fn, binding: self.relate_wrapper(fn, binding, bounded))
        for module_name, attr, name in SPAN_TARGETS:
            self._rebind(prog, module_name, attr,
                         lambda fn, binding, name=name: self.span_wrapper(fn, name, binding))
        for module_name, attr, name in LEAF_TARGETS:
            self._rebind(prog, module_name, attr,
                         lambda fn, binding, name=name: self.leaf_wrapper(fn, name))
        for module_name, attr, name in COUNT_TARGETS:
            self._rebind(prog, module_name, attr,
                         lambda fn, binding, name=name: self.count_wrapper(fn, name))
        green = prog.green
        original = green.all_boolean_matrices
        green.all_boolean_matrices = self.candidate_wrapper(original)
        self._undo.append((green, "all_boolean_matrices", original))
        space_cls = prog._boolspace.BooleanSpace
        original = space_cls.leq_l
        space_cls.leq_l = self.count_wrapper(original, "boolspace.leq_l")
        self._undo.append((space_cls, "leq_l", original))
        for attr in TABLE_PROPERTIES:
            prop = space_cls.__dict__[attr]
            original = prop.func
            prop.func = self._table_wrapper(original, attr)
            self._undo.append((prop, "func", original))

    def _table_wrapper(self, fn, attr):
        def wrapper(instance):
            return self._span_call(TABLE_BUILD, fn, (instance,), {}, f"{attr} n={instance.n}")

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        return [
            rec[_END] - rec[_START] - child[i] - rec[_LEAF] for i, rec in enumerate(spans)
        ]

    def summary(self, passes: int) -> dict:
        """Per-layer metrics, as totals per traced pass."""
        spans = self.spans
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        top_s: dict[str, float] = {}  # inclusive time of spans not nested in their own name
        suite_self: dict[str, float] = {}
        table_build: dict[str, float] = {}
        for i, rec in enumerate(spans):
            name = rec[_NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            label = rec[_LABEL]
            if not _nested_in(spans, rec, name):
                top_s[name] = top_s.get(name, 0.0) + rec[_END] - rec[_START]
                if name == TABLE_BUILD:
                    table_build[label] = table_build.get(label, 0.0) + rec[_END] - rec[_START]
            if name == "verify.run_suite":
                suite_self[label] = suite_self.get(label, 0.0) + selfs[i]
        leaf = self.leaf
        count = self.count
        bc = self.binding_calls
        drawn = calls.get("sampling.related_pair", 0) + calls.get("sampling.unrelated_pair", 0)
        sampling_relate = bc.get("sampling.relate", 0)
        per_pass = {
            "tropfast.leq_l.calls": leaf["tropfast.leq_l"][0],
            "tropfast.leq_l.self_s": leaf["tropfast.leq_l"][1],
            "tropfast.apply_map.calls": leaf["tropfast.apply_map"][0],
            "tropfast.apply_map.self_s": leaf["tropfast.apply_map"][1],
            "tropfast.related.calls": count["tropfast.related"],
            "tropfast.reverify.calls": bc.get("verify.relate", 0),
            "green.relate.calls": calls.get(RELATE, 0),
            "green.relate.self_s": self_s.get(RELATE, 0.0),
            "matrix.mat_mul.calls": calls.get("matrix.mat_mul", 0),
            "matrix.mat_mul.self_s": self_s.get("matrix.mat_mul", 0.0),
            "semiring.ops": leaf["semiring.add"][0] + leaf["semiring.mul"][0],
            "semiring.self_s": leaf["semiring.add"][1] + leaf["semiring.mul"][1],
            "sampling.related_pair.calls": calls.get("sampling.related_pair", 0),
            "sampling.related_pair.self_s": self_s.get("sampling.related_pair", 0.0),
            "sampling.unrelated_pair.calls": calls.get("sampling.unrelated_pair", 0),
            "sampling.unrelated_pair.self_s": self_s.get("sampling.unrelated_pair", 0.0),
            "sampling.relate.calls": sampling_relate,
            "sampling.none_returns": count["sampling.none_returns"],
            "linear_maps.apply.calls": calls.get("linear_maps.apply", 0),
            "linear_maps.apply.self_s": self_s.get("linear_maps.apply", 0.0),
            "linear_maps.check_preservation.s": top_s.get("linear_maps.check_preservation", 0.0),
            "linear_maps.check_exchange.s": top_s.get("linear_maps.check_exchange", 0.0),
            "linear_maps.find_sticky.s": top_s.get("linear_maps.find_sticky", 0.0),
            "linear_maps.classify.calls": calls.get("linear_maps.classify", 0),
            "linear_maps.classify.self_s": self_s.get("linear_maps.classify", 0.0),
            "linear_maps.synthesize.calls": calls.get("linear_maps.synthesize", 0),
            "boolspace.table_build_s": top_s.get(TABLE_BUILD, 0.0),
            "boolspace.act_on_bits.calls": count["boolspace.act_on_bits"],
            "boolspace.leq_l.calls": count["boolspace.leq_l"],
            "verify.self_s": self_s.get("verify.run_suite", 0.0),
            "green.bounded_search.calls": calls.get(BOUNDED, 0),
            "green.bounded_search.s": top_s.get(BOUNDED, 0.0),
            "green.bounded_search.candidates": count["green.bounded_search.candidates"],
            "green.factor_rank.calls": calls.get("green.factor_rank", 0),
            "green.factor_rank.s": top_s.get("green.factor_rank", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "matrix.json_parse.s": top_s.get("matrix.json_parse", 0.0),
            "eggbox.build_s": top_s.get("eggbox.build", 0.0),
            "trace.spans": len(spans),
        }
        out = {k: v / passes for k, v in per_pass.items()}
        # a ratio of totals, with its base in sampling.*.calls
        out["sampling.reject_ratio"] = sampling_relate / drawn if drawn else 0.0
        return {
            "metrics": out,
            "verify_self_s_by_suite": {k: v / passes for k, v in sorted(suite_self.items())},
            "boolspace_table_build_s_by_table": {
                k: v / passes for k, v in sorted(table_build.items())
            },
        }

    def dump(self, path, header: dict) -> None:
        """Write every span once: [name, start, end, parent, pass, op, leaf_s, label]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start_s", "end_s", "parent", "pass", "op",
                               "leaf_s", "label"],
                    "spans": [rec[:8] for rec in self.spans],
                    "leaf": self.leaf,
                    "count": self.count,
                    "binding_calls": self.binding_calls,
                },
                fh,
                separators=(",", ":"),
            )


def _nested_in(spans, rec, name) -> bool:
    parent = rec[_PARENT]
    while parent >= 0:
        up = spans[parent]
        if up[_NAME] == name:
            return True
        parent = up[_PARENT]
    return False
