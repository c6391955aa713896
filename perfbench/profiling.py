"""Per-layer figures from a cProfile run of the benchmark's own calls.

Self time is grouped by the facering module that defines each function.
Built-in functions (math.comb, sorted, dict methods, ...) are charged to the
module of the function that called them, using cProfile's per-caller times,
so a layer's figure includes the C helpers it leans on.  scalars also takes
the stdlib fractions module, whose arithmetic it stands for.  Everything
else (the benchmark's own loops, argparse and json inside the CLI, import
machinery) is "other".
"""

from __future__ import annotations

import fractions
import os
import pstats

LAYERS = ("cleanmap", "envelope", "complexes", "poset", "ring", "linalg", "scalars")

# metric name -> (module, qualified function name) whose call count it reports
CALL_COUNTS = {
    "cleanmap.apply_monomial_calls": ("cleanmap", "CoverData.apply_monomial"),
    "cleanmap.call_calls": ("cleanmap", "CleanMap.__call__"),
    "envelope.act_variable_calls": ("envelope", "Envelope.act_variable"),
    "envelope.element_objects": ("envelope", "EnvelopeElement.__init__"),
    "poset.join_set_calls": ("poset", "SimplicialPoset.join_set"),
    "linalg.kernel_basis_calls": ("linalg", "kernel_basis"),
    "linalg.bareiss_rank_calls": ("linalg", "bareiss_rank"),
}

# metric name -> (module, qualified function name) whose inclusive time it reports
INCLUSIVE = {
    "complexes.oracle_s": ("complexes", "simplicial_oracle"),
}


def _code_key(fr, module, qualname):
    obj = getattr(fr, module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class LayerMap:
    """Maps profiled function keys to layer names for one facering import."""

    def __init__(self, fr):
        pkg = os.path.dirname(os.path.abspath(fr.__file__))
        self.files = {
            os.path.join(pkg, f"{m}.py"): m for m in LAYERS
        }
        self.files[os.path.abspath(fractions.__file__)] = "scalars"
        self.counts = {k: _code_key(fr, *v) for k, v in CALL_COUNTS.items()}
        self.inclusive = {k: _code_key(fr, *v) for k, v in INCLUSIVE.items()}

    def layer(self, key):
        return self.files.get(os.path.abspath(key[0]), "other")

    def figures(self, profile):
        """Self seconds per layer (plus "other"), call counts and inclusive
        times, from one cProfile.Profile."""
        stats = pstats.Stats(profile).stats
        self_s = {m: 0.0 for m in LAYERS + ("other",)}
        for key, (_cc, _nc, tt, _ct, callers) in stats.items():
            if key[0] == "~":
                spread = 0.0
                for ckey, cval in callers.items():
                    self_s[self.layer(ckey)] += cval[2]
                    spread += cval[2]
                self_s["other"] += tt - spread
            else:
                self_s[self.layer(key)] += tt
        out = {f"{m}.self_s": v for m, v in self_s.items()}
        for name, key in self.counts.items():
            out[name] = stats[key][1] if key in stats else 0
        for name, key in self.inclusive.items():
            out[name] = stats[key][3] if key in stats else 0.0
        return out
