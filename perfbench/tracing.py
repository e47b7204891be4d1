"""Spans around the public functions of each formalpatch layer.

`Tracer.begin_pass` wraps every function in `TRACED` and rebinds each
name under which a formalpatch module holds it, so that calls made
through `from ... import` bindings are caught too; `end_pass` puts the
originals back and returns the pass's statistics.  The kernel
implementation modules (`_kernel_py`, `_kernel_cy`) are left alone: the
spans sit where the engine calls into `formalpatch.kernel`, and a
kernel function's self time includes the helpers it calls internally.

Each span records its name, start, end, parent span id and op id; spans
stay in memory until `write` is called.  Self time is a span's duration
minus the durations of its direct children (calls nest, so the children
cover disjoint parts of it).
"""

import inspect
import json
import sys
from time import perf_counter

# (span name, module, attribute path inside the module)
TRACED = (
    ("kernel.nf_vec", "formalpatch.kernel", "nf_vec"),
    ("kernel.spair_vec", "formalpatch.kernel", "spair_vec"),
    ("kernel.canon_vec", "formalpatch.kernel", "canon_vec"),
    ("kernel.mul_vec_poly", "formalpatch.kernel", "mul_vec_poly"),
    ("engine.submodule", "formalpatch.engine", "submodule"),
    ("engine.syzygy_project", "formalpatch.engine", "syzygy_project"),
    ("engine.saturate", "formalpatch.engine", "saturate"),
    ("engine.submodule_intersect", "formalpatch.engine", "submodule_intersect"),
    ("engine.contains", "formalpatch.engine", "SubmoduleBasis.contains"),
    ("rings.truncate", "formalpatch.rings", "truncate"),
    ("rings.localize", "formalpatch.rings", "localize"),
    ("towers.build_tower", "formalpatch.towers", "build_tower"),
    ("towers.q_filtration", "formalpatch.towers", "q_filtration"),
    ("towers.verify_tower_laws", "formalpatch.towers", "verify_tower_laws"),
    ("patch.pose_problem", "formalpatch.patch", "pose_problem"),
    ("patch.solve", "formalpatch.patch", "solve"),
    ("patch.kernel_basis", "formalpatch.patch", "PatchProblem.kernel_basis"),
    ("patch.span_with_zero_pairs", "formalpatch.patch", "PatchProblem.span_with_zero_pairs"),
    ("patch.certify_solution", "formalpatch.patch", "certify_solution"),
    ("patch.check_maximality", "formalpatch.patch", "check_maximality"),
    ("patch.flatness_certificate", "formalpatch.patch", "flatness_certificate"),
    ("instance.load_instance", "formalpatch.instance", "load_instance"),
    ("report.text", "formalpatch.report", "Report.text"),
)

# spans whose inputs are recorded, for repeat_share
KEYED = ("engine.submodule", "engine.syzygy_project", "rings.truncate")

_IMPL_MODULES = ("formalpatch._kernel_py", "formalpatch._kernel_cy")


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent id or -1, op id)
        self.op_id = -1
        self._stack = []  # [span id, time covered by children, name]
        self._stats = {}
        self._restore = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keyfn = None
        if name in KEYED:
            sig = inspect.signature(fn)

            def keyfn(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return tuple(_freeze(v) for v in bound.arguments.values())

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (name, start, end, parent, self.op_id)
                st = self._stats.get(name)
                if st is None:
                    st = self._stats[name] = [0, 0.0, 0.0, set()]
                st[0] += 1
                st[1] += dur - frame[1]
                if not any(f[2] == name for f in stack):
                    st[2] += dur  # inclusive time counts outermost calls only
                if keyfn is not None:
                    st[3].add(keyfn(args, kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self):
        import formalpatch.cli  # noqa: F401  (loads every layer)

        mods = [
            m for n, m in sorted(sys.modules.items())
            if (n == "formalpatch" or n.startswith("formalpatch.")) and n not in _IMPL_MODULES
        ]
        for name, modname, path in TRACED:
            owner = sys.modules[modname]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def _uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- per-pass statistics ---------------------------------------------

    def begin_pass(self):
        self._stats = {}
        self._install()

    def end_pass(self):
        """Per span name: calls, self_s, incl_s and repeat_share of the
        pass just run."""
        self._uninstall()
        out = {}
        for name, (calls, self_s, incl_s, keys) in self._stats.items():
            out[name] = {
                "calls": calls,
                "self_s": self_s,
                "incl_s": incl_s,
                "repeat_share": 1.0 - len(keys) / calls if name in KEYED else 0.0,
            }
        self._stats = {}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                name, start, end, parent, op_id = span
                fh.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent, op_id]) + "\n")
