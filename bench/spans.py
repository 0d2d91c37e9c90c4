"""Span tracer that times doublelift's layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
doublelift module that binds it (``cli`` and ``doublecat`` both bind
``check_double_axioms``, for instance), and each traced ``__post_init__``
or method on its class.  A wrapper records a span: the target, start, end,
the enclosing span and an optional count.  Spans stay in memory and are
written out once, at the end of the job.  ``layer_metrics`` turns one job's
spans into self times and counts per layer.
"""

from __future__ import annotations

import importlib
import marshal
import sys
import time

from doublelift.analysis import SearchCertificate


# The package namespace binds the function ``lift`` over the module of that
# name, so the modules are looked up by their full names.
(fincat, twocat, grothendieck, doublecat, lift, analysis, adjoint, serialize, examples,
 cli) = (importlib.import_module(f"doublelift.{name}") for name in (
    "fincat", "twocat", "grothendieck", "doublecat", "lift", "analysis", "adjoint",
    "serialize", "examples", "cli"))


def _axiom_pairs(args, result):
    return len(args[0].c1.composition)


def _lift_squares(args, result):
    return result.dc.c1.n_morphisms


def _search_nodes(args, result):
    return result.nodes if isinstance(result, SearchCertificate) else 0


def _arg_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


_FOLDING = ("analysis.folding_s", "analysis.folding_searches",
            ("analysis.search_nodes", _search_nodes))

# owner, attribute, self-time metric, call-count metric, (summed metric, extractor)
TARGETS = (
    (fincat.Monoid, "__post_init__", "fincat.monoid_validate_s", None, None),
    (fincat.FiniteCategory, "__post_init__", "fincat.category_validate_s",
     "fincat.category_validations", None),
    (fincat.FunctorData, "__post_init__", "fincat.functor_validate_s", None, None),
    (fincat.StrictMonoidalCategory, "__post_init__", "fincat.monoidal_validate_s", None, None),
    (fincat, "monoid_endomorphisms", "fincat.endomorphisms_s", "fincat.endomorphisms_calls", None),
    (fincat, "monoid_automorphisms", "fincat.endomorphisms_s", None, None),
    (fincat, "enumerate_actions", "fincat.endomorphisms_s", None, None),
    (twocat.StrictBicategory, "__post_init__", "twocat.bicategory_validate_s",
     "twocat.bicategory_validations", None),
    (grothendieck.Precosheaf, "__post_init__", "grothendieck.precosheaf_validate_s", None, None),
    (grothendieck, "extended_total", "grothendieck.extended_total_s", None, None),
    (doublecat.DoubleCategory, "__post_init__", "doublecat.construct_s", None, None),
    (doublecat, "check_double_axioms", "doublecat.axioms_s", "doublecat.axiom_suites",
     ("doublecat.axiom_pairs", _axiom_pairs)),
    (doublecat, "horizontalization", "doublecat.horizontalization_s", None, None),
    (doublecat, "decorated_horizontalization", "doublecat.horizontalization_s", None, None),
    (doublecat.DoubleFunctor, "check", "doublecat.functor_check_s", None, None),
    (lift, "lift_data", "lift.assembly_s", "lift.lifts", ("lift.squares", _lift_squares)),
    (lift, "lift_functor", "lift.functor_s", None, None),
    (lift.PrecosheafMap, "__post_init__", "lift.precosheaf_map_validate_s",
     "lift.precosheaf_map_attempts", None),
    (analysis, "gamma_data", "analysis.gamma_s", "analysis.gamma_calls", None),
    (analysis, "vertical_chain", "analysis.chain_s", None, None),
    (analysis, "find_folding", *_FOLDING),
    (analysis, "find_cofolding", *_FOLDING),
    (analysis, "framed_flag", "analysis.folding_s", None, None),
    (analysis, "reconstruct_single_object_lift", "analysis.reconstruct_s", None, None),
    (adjoint, "check_triangle_identities", "adjoint.triangle_s", None, None),
    (adjoint, "enumerate_precosheaf_maps", "adjoint.map_enum_s", None,
     ("adjoint.maps_found", _result_len)),
    (serialize, "loads", "serialize.loads_s", None, ("serialize.bytes_in", _arg_len)),
    (serialize, "dumps", "serialize.dumps_s", None, ("serialize.bytes_out", _result_len)),
    (examples, "fixture_by_name", "examples.fixture_s", None, None),
    (examples, "build_semidirect_fixture", "examples.fixture_s", None, None),
    (examples, "build_graded_fixture", "examples.fixture_s", None, None),
    (examples, "build_two_object_fixture", "examples.fixture_s", None, None),
    (cli, "run", "cli.command_s", None, None),
    *((cli, f"cmd_{name}", "cli.command_s", None, None)
      for name in ("check", "lift", "analyze", "folding", "adjunction", "example")),
)

# Per-layer metrics in report order: name, unit, better.  The per-round
# values of the ``s`` metrics plus ``trace.remainder_s`` add up to
# ``trace.round_s``.
METRICS = (
    ("fincat.monoid_validate_s", "s", "lower"),
    ("fincat.category_validate_s", "s", "lower"),
    ("fincat.category_validations", "count", "lower"),
    ("fincat.functor_validate_s", "s", "lower"),
    ("fincat.monoidal_validate_s", "s", "lower"),
    ("fincat.endomorphisms_s", "s", "lower"),
    ("fincat.endomorphisms_calls", "count", "lower"),
    ("twocat.bicategory_validate_s", "s", "lower"),
    ("twocat.bicategory_validations", "count", "lower"),
    ("grothendieck.precosheaf_validate_s", "s", "lower"),
    ("grothendieck.extended_total_s", "s", "lower"),
    ("doublecat.axioms_s", "s", "lower"),
    ("doublecat.axiom_suites", "count", "lower"),
    ("doublecat.axiom_pairs", "count", "lower"),
    ("doublecat.construct_s", "s", "lower"),
    ("doublecat.horizontalization_s", "s", "lower"),
    ("doublecat.functor_check_s", "s", "lower"),
    ("lift.assembly_s", "s", "lower"),
    ("lift.lifts", "count", "lower"),
    ("lift.squares", "count", "lower"),
    ("lift.functor_s", "s", "lower"),
    ("lift.precosheaf_map_validate_s", "s", "lower"),
    ("lift.precosheaf_map_attempts", "count", "lower"),
    ("analysis.gamma_s", "s", "lower"),
    ("analysis.gamma_calls", "count", "lower"),
    ("analysis.chain_s", "s", "lower"),
    ("analysis.folding_s", "s", "lower"),
    ("analysis.folding_searches", "count", "lower"),
    ("analysis.search_nodes", "count", "lower"),
    ("analysis.reconstruct_s", "s", "lower"),
    ("adjoint.triangle_s", "s", "lower"),
    ("adjoint.map_enum_s", "s", "lower"),
    ("adjoint.maps_found", "count", "higher"),
    ("adjoint.map_yield", "ratio", "higher"),
    ("serialize.loads_s", "s", "lower"),
    ("serialize.dumps_s", "s", "lower"),
    ("serialize.bytes_in", "B", "lower"),
    ("serialize.bytes_out", "B", "lower"),
    ("examples.fixture_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Collects spans as lists ``[target, start, end, parent, count]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, target: int, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [target, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [module for name, module in sys.modules.items()
                   if name == "doublelift" or name.startswith("doublelift.")]
        for index, (owner, attr, _, _, extra) in enumerate(TARGETS):
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, extra[1] if extra else None)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)


def load(path: str) -> list[list]:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], float]:
    """Self times and counts per metric for one job, plus the total time
    covered by its outermost spans."""
    child = [0.0] * len(spans)
    for target, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    covered = 0.0
    for i, (target, start, end, parent, count) in enumerate(spans):
        _, _, time_metric, count_metric, extra = TARGETS[target]
        out[time_metric] = out.get(time_metric, 0.0) + (end - start) - child[i]
        if count_metric:
            out[count_metric] = out.get(count_metric, 0) + 1
        if extra:
            out[extra[0]] = out.get(extra[0], 0) + count
        if parent < 0:
            covered += end - start
    return out, covered
