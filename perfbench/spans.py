"""Span tracer for the zpure benchmark, and the aggregation of its records.

``install`` wraps the functions listed in ``TARGETS``.  A ``from x import y``
copies the binding, so every ``zpure`` module attribute that holds a target
is replaced, not only the defining one.  A target that no longer exists is
recorded as absent; the metrics built only from absent targets say so.

Each wrapped call appends one record to an in-memory buffer::

    op, span id, parent span id, name id, start ns, end ns, self ns, flag, value

``flag`` is 0 for a call that returned, 1 for a cache miss (or catalog
build), 2 for a call cut short by an interrupt (an op over its time budget)
and 3 for a call that raised an ordinary exception.
``value`` depends on the target: the bit length of the largest integer a
``zmodlin`` call returned, the size of a built catalog, or 1 for a pure
report.  Self time is the span's duration minus the time its child spans
cover; the tracer's own bookkeeping is charged to neither.

The process that installs the tracer writes its buffer when ``close`` is
called.  Forked children (the CLI's pool workers) never run ``atexit``
handlers, so each one writes its records to its own file whenever its
outermost span ends.

This module imports ``zpure`` only inside ``install``, so run.py can use the
aggregation functions without importing the package.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import time
from dataclasses import fields, is_dataclass

MODULES = ("zmodlin", "finmod", "ppdef", "funcat", "purity", "suites", "cli")

# (module, attribute path, span name, what the record's flag/value hold)
TARGETS = (
    ("zmodlin", "kernel_mod", "zmodlin.kernel_mod", "bits"),
    ("zmodlin", "smith_normal_form", "zmodlin.snf", "bits"),
    ("zmodlin", "snf_diagonal_only", "zmodlin.snf", "bits"),
    ("zmodlin", "snf_left_transforms", "zmodlin.snf", "bits"),
    ("zmodlin", "ModSolver.__init__", "zmodlin.snf", "bits_self"),
    ("zmodlin", "column_echelon", "zmodlin.column_echelon", "bits"),
    ("zmodlin", "hermite_key", "zmodlin.hermite_key", "bits"),
    ("finmod", "normalize_presentation", "finmod.normalize_presentation", None),
    ("finmod", "is_exact", "finmod.is_exact", None),
    ("finmod", "splitting_section", "finmod.splitting_section", None),
    ("finmod", "hom_module", "finmod.hom_module", "cache"),
    ("finmod", "tensor_modules", "finmod.tensor_modules", "cache"),
    ("finmod", "ModuleMap.__post_init__", "finmod.module_map", None),
    ("ppdef", "enumerate_pp", "ppdef.enumerate_pp", "cache_size"),
    ("ppdef", "_formula_signature", "ppdef.formula_offered", None),
    ("ppdef", "eval_pp", "ppdef.eval_pp", "cache"),
    ("ppdef", "induced_pp_map", "ppdef.induced_pp_map", None),
    ("ppdef", "sort_group_from_subgroups", "ppdef.sort_group", None),
    ("funcat", "fp_induced", "funcat.fp_induced", None),
    ("funcat", "fp_value", "funcat.fp_value", "cache"),
    ("funcat", "functor_from_values", "funcat.functor_build", None),
    ("funcat", "FunctorOnD.__post_init__", "funcat.functor_build", None),
    ("funcat", "coend_tensor", "funcat.coend_tensor", None),
    ("funcat", "nat_transformations", "funcat.nat_transformations", None),
    ("funcat", "build_index_category", "funcat.index_category", None),
    ("purity", "purity_report", "purity.purity_report", "report"),
    ("purity", "fp_catalog", "purity.fp_catalog", "first_size"),
    ("suites", "suite_coend_evaluation", "suites.coend_evaluation", None),
    ("suites", "suite_restriction", "suites.restriction", None),
    ("suites", "suite_hom_tensor", "suites.hom_tensor_duality", None),
    ("suites", "suite_dual_of_hom", "suites.dual_of_hom", None),
    ("suites", "suite_fully_faithful", "suites.fully_faithful", None),
)

CHECKERS = ("hom_lifting", "split", "fp_functors", "pp_pairs", "tensor", "dual_split")
SUITES = ("coend_evaluation", "restriction", "hom_tensor_duality", "dual_of_hom",
          "fully_faithful")

# Span names in record order: the targets' names, then one pseudo span per
# checker carrying PurityReport.timings.
NAMES = tuple(dict.fromkeys([t[2] for t in TARGETS] +
                            [f"purity.{c}" for c in CHECKERS]))
NAME_ID = {n: i for i, n in enumerate(NAMES)}

FIELDS = 9
MISS = 1
RAISED = 2  # left by an interrupt: a BaseException that is not an Exception
FAILED = 3  # left by an Exception


def max_bits(x) -> int:
    """Bit length of the largest integer inside a zmodlin result."""
    if type(x) is int:
        return x.bit_length()
    if isinstance(x, (list, tuple)):
        try:
            return max(map(abs, x), default=0).bit_length()
        except TypeError:
            return max((max_bits(v) for v in x), default=0)
    if is_dataclass(x):
        return max((max_bits(getattr(x, f.name)) for f in fields(x)), default=0)
    slots = getattr(type(x), "__slots__", ())
    return max((max_bits(getattr(x, s, 0)) for s in slots), default=0)


class Tracer:
    def __init__(self, out_dir: str, op: int = -1):
        self.out_dir = out_dir
        self.op = op
        self.pid = os.getpid()
        self.origin = self.pid
        self.records = array.array("q")
        self.stack: list[list[int]] = []
        self.next_id = 0
        self.absent: list[str] = []
        self.seen_args: set = set()
        self.import_ms = 0.0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.records = array.array("q")
        self.stack.clear()

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name: str, kind):
        name_id = NAME_ID[name]
        stack = self.stack
        clock = time.perf_counter_ns
        info = getattr(fn, "cache_info", None) if kind in ("cache", "cache_size") else None
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            tracer.next_id += 1
            sid = tracer.next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            misses = info().misses if info is not None else 0
            flag = RAISED
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                flag = 0
                return result
            except Exception:
                flag = FAILED
                raise
            finally:
                end = clock()
                value = 0
                if flag == 0 and kind is not None:
                    if kind == "bits":
                        value = max_bits(result)
                    elif kind == "bits_self":
                        value = max_bits(args[0])
                    elif kind == "report":
                        is_pure = getattr(result, "is_pure", None)
                        value = 1 if is_pure is not None and is_pure() else 0
                        tracer._timings(result, sid)
                    else:
                        if info is not None:
                            flag = MISS if info().misses > misses else 0
                        else:
                            key = (name_id, args, tuple(sorted(kwargs.items())))
                            if key not in tracer.seen_args:
                                tracer.seen_args.add(key)
                                flag = MISS
                        if kind != "cache":
                            value = len(result)
                while stack and stack[-1] is not frame:
                    stack.pop()  # frames left open by an interrupt
                if stack:
                    stack.pop()
                tracer.records.extend((tracer.op, sid, parent, name_id, start, end,
                                       end - start - frame[1], flag, value))
                if stack:
                    stack[-1][1] += clock() - enter
                elif tracer.pid != tracer.origin:
                    tracer.flush()

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        if info is not None:
            traced.cache_info = info
            traced.cache_clear = fn.cache_clear
        return traced

    def _timings(self, report, parent: int):
        for checker, secs in getattr(report, "timings", {}).items():
            name_id = NAME_ID.get(f"purity.{checker}")
            if name_id is not None:
                ns = int(secs * 1e9)
                self.records.extend((self.op, 0, parent, name_id, 0, ns, ns, 0, 0))

    def unwind(self):
        """Forget frames an interrupted op left open."""
        self.stack.clear()

    # -- output -----------------------------------------------------------

    def flush(self):
        if not self.records:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.bin")
        with open(path, "ab") as fh:
            self.records.tofile(fh)
        self.records = array.array("q")

    def close(self):
        self.flush()
        meta = {"names": NAMES, "absent": self.absent, "import_ms": self.import_ms}
        with open(os.path.join(self.out_dir, f"meta-{self.pid}.json"), "w") as fh:
            json.dump(meta, fh)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(out_dir: str, op: int = -1) -> Tracer:
    """Import zpure, wrap every target in every module that binds it."""
    t0 = time.perf_counter()
    importlib.import_module("zpure.cli")
    import_ms = (time.perf_counter() - t0) * 1000
    modules = {m: _module(f"zpure.{m}") for m in MODULES}
    bound_in = [m for m in [_module("zpure"), *modules.values()] if m is not None]
    tracer = Tracer(out_dir, op)
    tracer.import_ms = import_ms
    for mod_name, path, name, kind in TARGETS:
        mod = modules[mod_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None or (owner_name and attr not in vars(owner)):
            tracer.absent.append(f"{mod_name}.{path}")
            continue
        wrapped = tracer.wrap(fn, name, kind)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for m in bound_in:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)
    return tracer


# ---------------------------------------------------------------------------
# Aggregation (no zpure import)


def read_spans(trace_dir: str):
    """All records under trace_dir, the absent targets and import times."""
    records = array.array("q")
    absent: set = set()
    import_ms = []
    for entry in sorted(os.listdir(trace_dir)):
        path = os.path.join(trace_dir, entry)
        if entry.startswith("spans-"):
            with open(path, "rb") as fh:
                records.frombytes(fh.read())
        elif entry.startswith("meta-"):
            with open(path) as fh:
                meta = json.load(fh)
            if tuple(meta["names"]) != NAMES:
                raise RuntimeError(f"{path}: span names do not match this tracer")
            absent.update(meta["absent"])
            import_ms.append(meta["import_ms"])
    return records, absent, import_ms


class Totals:
    """Per span name: measured-phase sums, plus all-phase build data."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.done = [0] * n
        self.done_ns = [0] * n
        self.misses = [0] * n
        self.raised = [0] * n
        self.value_max = [0] * n
        self.value_sum = [0] * n
        self.all_calls = [0] * n
        self.builds = [0] * n
        self.build_ns = [0] * n
        self.build_size = [0] * n

    @classmethod
    def of(cls, records) -> "Totals":
        t = cls()
        for i in range(0, len(records), FIELDS):
            op, _sid, _parent, name, start, end, self_ns, flag, value = records[i:i + FIELDS]
            t.all_calls[name] += 1
            if flag == MISS:
                t.builds[name] += 1
                t.build_ns[name] += end - start
                t.build_size[name] = max(t.build_size[name], value)
            if op < 0:
                continue
            t.calls[name] += 1
            t.self_ns[name] += self_ns
            if flag in (0, MISS):
                t.done[name] += 1
                t.done_ns[name] += end - start
            t.misses[name] += flag == MISS
            t.raised[name] += flag == RAISED
            t.value_max[name] = max(t.value_max[name], value)
            t.value_sum[name] += value
        return t


def _sources(span: str) -> list[str]:
    return [f"{m}.{p}" for m, p, n, _ in TARGETS if n == span]


def layer_metrics(records, absent: set, import_ms: list, ops: int) -> dict:
    """Per-layer metrics as {name: (value, unit, absent)}.

    ``ops`` is the number of ops the traced run attempted; ``_ms`` and
    ``_calls`` metrics are per attempted op over the measured phase.
    """
    t = Totals.of(records)
    out: dict = {}
    per_op = 1.0 / max(ops, 1)

    def gone(span):
        return bool(span) and all(s in absent for s in _sources(span))

    def put(metric, value, unit, span=None):
        out[metric] = (value, unit, gone(span))

    def idx(span):
        return NAME_ID[span]

    def self_ms(span):
        return t.self_ns[idx(span)] / 1e6 * per_op

    def hit_ratio(span):
        calls = t.calls[idx(span)]
        return (calls - t.misses[idx(span)]) / calls if calls else 0.0

    def per_build(values, span):
        builds = t.builds[idx(span)]
        return values / builds if builds else 0.0

    put("cli.import_ms", sorted(import_ms)[len(import_ms) // 2] if import_ms else 0.0, "ms")
    for c in CHECKERS:
        put(f"purity.{c}_ms", self_ms(f"purity.{c}"), "ms", "purity.purity_report")
    reports = t.calls[idx("purity.purity_report")]
    put("purity.pure_share",
        t.value_sum[idx("purity.purity_report")] / reports if reports else 0.0,
        "ratio", "purity.purity_report")
    fp = idx("purity.fp_catalog")
    put("purity.fp_catalog_ms", per_build(t.build_ns[fp] / 1e6, "purity.fp_catalog"),
        "ms", "purity.fp_catalog")
    put("purity.fp_catalog_size", t.build_size[fp], "count", "purity.fp_catalog")
    pp = idx("ppdef.enumerate_pp")
    put("purity.pp_catalog_builds_per_op", t.misses[pp] * per_op, "count",
        "ppdef.enumerate_pp")
    put("ppdef.enumerate_pp_ms", per_build(t.build_ns[pp] / 1e6, "ppdef.enumerate_pp"),
        "ms", "ppdef.enumerate_pp")
    put("ppdef.catalog_size", t.build_size[pp], "count", "ppdef.enumerate_pp")
    put("ppdef.formulas_offered",
        per_build(t.all_calls[idx("ppdef.formula_offered")], "ppdef.enumerate_pp"),
        "count", "ppdef.formula_offered")
    put("ppdef.hermite_key_calls",
        per_build(t.all_calls[idx("zmodlin.hermite_key")], "ppdef.enumerate_pp"),
        "count", "zmodlin.hermite_key")
    put("ppdef.eval_pp_ms", self_ms("ppdef.eval_pp"), "ms", "ppdef.eval_pp")
    put("ppdef.eval_pp_hit_ratio", hit_ratio("ppdef.eval_pp"), "ratio", "ppdef.eval_pp")
    put("ppdef.induced_pp_map_ms", self_ms("ppdef.induced_pp_map"), "ms",
        "ppdef.induced_pp_map")
    put("ppdef.sort_group_ms", self_ms("ppdef.sort_group"), "ms", "ppdef.sort_group")
    for name in ("fp_induced", "fp_value", "functor_build", "coend_tensor",
                 "nat_transformations", "index_category"):
        put(f"funcat.{name}_ms", self_ms(f"funcat.{name}"), "ms", f"funcat.{name}")
    put("funcat.fp_value_hit_ratio", hit_ratio("funcat.fp_value"), "ratio", "funcat.fp_value")
    for s in SUITES:
        span = f"suites.{s}"
        done = t.done[idx(span)]
        put(f"suites.{s}_ms", t.done_ns[idx(span)] / 1e6 / done if done else 0.0, "ms", span)
        put(f"suites.{s}_over_budget", t.raised[idx(span)], "count", span)
    put("finmod.module_maps_built", t.calls[idx("finmod.module_map")] * per_op, "count",
        "finmod.module_map")
    for name in ("normalize_presentation", "is_exact", "splitting_section"):
        put(f"finmod.{name}_ms", self_ms(f"finmod.{name}"), "ms", f"finmod.{name}")
    for name in ("hom_module", "tensor_modules"):
        put(f"finmod.{name}_hit_ratio", hit_ratio(f"finmod.{name}"), "ratio", f"finmod.{name}")
    for name in ("kernel_mod", "snf", "column_echelon", "hermite_key"):
        span = f"zmodlin.{name}"
        put(f"{span}_ms", self_ms(span), "ms", span)
        put(f"{span}_calls", t.calls[idx(span)] * per_op, "count", span)
    put("zmodlin.max_entry_bits",
        max(t.value_max[NAME_ID[n]] for n in NAMES if n.startswith("zmodlin.")), "bits")
    return out
