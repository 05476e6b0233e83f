"""Per-layer spans recorded from outside the library.

`Tracer.install()` rebinds selected public functions of the liecograph
modules to timing wrappers: every module global bound to the original object
is rebound, so calls from one library module into another are traced too.
Spans stay in memory as [name, parent index, start, end]; `dump` writes them
once, at the end of a traced pass.

A span is opened only at the outermost call of its name, so recursion is not
counted twice.  Times are inclusive: `functors.check_duality_s` contains the
`build_E` and `lie_normal_form` calls it makes, and those are also counted
under their own names.
"""

import functools
import importlib
import json
import resource
import sys
import time
from collections import Counter

# (module, attribute, span name)
SPANS = (
    ("shapes", "enumerate_graphs", "shapes.enumerate"),
    ("shapes", "enumerate_trees", "shapes.enumerate"),
    ("pairing", "pairing_matrix", "pairing.matrix_build"),
    ("pairing", "element_pair", "pairing.element_pair"),
    ("linalg", "integer_matrix_rank", "linalg.rank"),
    ("linalg", "SparseMatrix.rank", "linalg.rank"),
    ("linalg", "total_homology", "linalg.homology"),
    ("linalg", "spectral_pages", "linalg.spectral"),
    ("linalg", "BigradedComplex.validate", "linalg.validate"),
    ("graphcoalg", "is_zero_in_E", "graphcoalg.is_zero"),
    ("graphcoalg", "to_bar_basis", "graphcoalg.to_bar_basis"),
    ("graphcoalg", "relation_generators", "graphcoalg.relation_generators"),
    ("elements", "GraphElement.from_term", "elements.from_term"),
    ("elements", "TreeElement.from_term", "elements.from_term"),
    ("liealg", "lie_normal_form", "liealg.lie_normal_form"),
    ("functors", "harrison_shuffle_model", "functors.harrison"),
    ("functors", "build_E", "functors.build_E"),
    ("functors", "check_duality", "functors.check_duality"),
    ("functors", "build_G", "functors.builders_other"),
    ("functors", "build_A_hat", "functors.builders_other"),
    ("functors", "build_L", "functors.builders_other"),
    ("functors", "build_C", "functors.builders_other"),
    ("functors", "dualize", "functors.builders_other"),
    ("presentations", "parse_presentation", "presentations.parse"),
    ("cli", "main", "cli.main"),
)


def _cells(M):
    return len(M.row_basis) * len(M.col_basis)


def _total_dim(bundle):
    return sum(bundle.dims().values())


# (module, attribute) -> (size metric, function of the call's result)
SIZES = {
    ("shapes", "enumerate_graphs"): ("shapes.graphs", len),
    ("shapes", "enumerate_trees"): ("shapes.trees", len),
    ("pairing", "pairing_matrix"): ("pairing.matrix_cells", _cells),
    ("functors", "harrison_shuffle_model"): ("functors.harrison_dim", _total_dim),
    ("functors", "build_E"): ("functors.E_dim", _total_dim),
}

# span name -> metric for the growth of the process's peak RSS during it
PEAK_GROWTH = {
    "pairing.matrix_build": "pairing.matrix_peak_growth_mb",
    "linalg.rank": "linalg.rank_peak_growth_mb",
}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.sizes = Counter()
        self.growth_mb = Counter()
        self._stack = []
        self._open = set()

    def _wrap(self, fn, name, size=None):
        growth = PEAK_GROWTH.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if name in self._open:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open.add(name)
            rss0 = _maxrss_mb() if growth else 0.0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                self._open.discard(name)
            if growth:
                self.growth_mb[growth] += _maxrss_mb() - rss0
            if size:
                self.sizes[size[0]] += size[1](result)
            return result
        return traced

    def install(self):
        """Rebind every function in SPANS; call after importing liecograph."""
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("liecograph.")]
        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(f"liecograph.{mod_name}")
            size = SIZES.get((mod_name, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self._wrap(raw.__func__, name, size)))
                else:
                    setattr(cls, meth, self._wrap(raw, name, size))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(original, name, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def metrics(self, start, end):
        """Per-layer metrics; coverage is the share of [start, end] spent
        inside top-level spans."""
        out = {}
        for _, _, name in SPANS:
            out[f"{name}_s"] = 0.0
            out[f"{name}_calls"] = self.calls[name]
        for metric, _ in SIZES.values():
            out[metric] = self.sizes[metric]
        for metric in PEAK_GROWTH.values():
            out[metric] = self.growth_mb[metric]
        child = Counter()
        covered = 0.0
        for name, parent, s, e in self.spans:
            out[f"{name}_s"] += e - s
            if parent >= 0:
                child[parent] += e - s
            elif s >= start:
                covered += e - s
        out["cli.self_s"] = sum(e - s - child[i]
                                for i, (name, _, s, e) in enumerate(self.spans)
                                if name == "cli.main")
        out["trace.coverage"] = covered / (end - start)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, f)
