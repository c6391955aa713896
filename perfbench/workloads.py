"""The three workloads: their inputs, the program calls of one round, the
checks on a round's outputs and the closing CLI phase.

Every call into facering goes through Meter.call, which times it, counts it
as one attempted operation, and records it as failed if it raises.  A round
rebuilds its posets and rings from the generated descriptions, so nothing a
round computes can be reused by the next one through an object it kept.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
import traceback
from itertools import product

import checks
from checks import Faces
from families import (
    FAMILIES,
    face_poset_obj,
    facet_face_counts,
    simplex_boundary_facets,
)

FAILED = object()


class Meter:
    """Times and counts the program calls of one phase of a run."""

    def __init__(self, profile=None):
        self.profile = profile
        self.time = {}
        self.units = {}
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.last = 0.0

    def call(self, phase, fn, *args, units=0, **kwargs):
        prof = self.profile
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a raising call is a failed operation, not a crash
            out = FAILED
            self.errors.append(f"{phase}: {traceback.format_exc()}")
        finally:
            dt = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
        self.last = dt
        self.attempted += 1
        if out is FAILED:
            self.failed += 1
        self.time[phase] = self.time.get(phase, 0.0) + dt
        self.units[phase] = self.units.get(phase, 0) + units
        return out

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    @property
    def total(self):
        return sum(self.time.values())


def load_facering(src):
    """Import facering afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "facering" or m.startswith("facering.")]:
        del sys.modules[name]
    import facering
    import facering.cli  # noqa: F401  (the CLI phase calls facering.cli.main)

    where = os.path.dirname(os.path.abspath(facering.__file__))
    if where != os.path.join(os.path.abspath(src), "facering"):
        raise ImportError(f"facering was imported from {where}, not from {src}")
    return facering


def fields(fr):
    return {"Q": fr.QQ, "F2": fr.PrimeField(2), "F3": fr.PrimeField(3)}


def _ok(*values):
    return all(v is not FAILED for v in values)


def _coeffs(terms):
    """Import-independent form of a term dict, for comparing rounds."""
    return tuple(sorted((k, str(c)) for k, c in terms.items()))


class Input:
    """One generated poset: its description, its facets and its order data."""

    def __init__(self, label, obj, facets, is_complex):
        self.label = label
        self.obj = obj
        self.facets = facets
        self.is_complex = is_complex
        self.faces = Faces(obj)


class Workload:
    name = ""
    sweep_phase = ""

    def __init__(self, fr, seed):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs = {}

    def add_family(self, label, family=None):
        facets, is_complex = FAMILIES[family or label]
        obj = face_poset_obj(facets, self.rng)
        self.inputs[label] = Input(label, obj, facets, is_complex)

    # ---------- set-up ----------

    def setup(self, fr, m):
        """Build and validate every poset and build its rings: the work a
        user pays before the first query.  Returns what check_setup reads."""
        built = {}
        for label, inp in self.inputs.items():
            poset = m.call("setup", fr.SimplicialPoset.from_json_obj, inp.obj)
            report = m.call("setup", fr.validate_simplicial, poset)
            for field in self.setup_fields(fr, label):
                ring = m.call("setup", fr.PolyRing, poset, field)
                m.call("setup", lambda: ring.generators())
                self.setup_extra(fr, m, poset, ring, field)
            built[label] = (poset, report)
        return built

    def setup_fields(self, fr, label):
        return (fr.QQ,)

    def setup_extra(self, fr, m, poset, ring, field):
        pass

    def check_setup(self, built, fails):
        for label, (poset, report) in built.items():
            inp = self.inputs[label]
            if not _ok(poset, report):
                continue
            fails.require(report.ok, f"{label}: validate_simplicial reports {report.violations[:3]}")
            want = facet_face_counts(inp.facets)
            fails.require(inp.faces.rank_counts() == want, f"{label}: generated faces differ from the facet list")
            got = {}
            for x in poset.elements:
                r = poset.rank_of(x)
                if r:
                    got[r] = got.get(r, 0) + 1
            fails.require(got == want, f"{label}: face counts {got} != {want} from the facets")
            fails.require(
                poset.atoms == inp.faces.atoms
                and poset.proper_elements == inp.faces.variables,
                f"{label}: atom or variable order differs from the input order",
            )

    # ---------- one round ----------

    def round(self, fr, m):
        raise NotImplementedError

    def check(self, fr, outputs, fails):
        raise NotImplementedError

    def digest(self, outputs):
        raise NotImplementedError

    # ---------- CLI phase ----------

    def cli_jobs(self, files):
        raise NotImplementedError

    def cli_phase(self, fr, m, tmp, fails):
        """Run each subcommand twice in-process with --json; both runs must
        exit 0 and write the same bytes.  Returns wall seconds per call."""
        files = {}
        for label, inp in self.inputs.items():
            path = os.path.join(tmp, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inp.obj, fh)
            files[label] = path
        walls = {}
        for sub, argv in self.cli_jobs(files):
            certs = []
            for k in range(2):
                cert = os.path.join(tmp, f"{sub}-{k}.json")
                code = m.call(f"cli.{sub}", _cli_main, fr, [sub] + argv + ["--json", cert])
                walls.setdefault(sub, []).append(m.last)
                if code is FAILED:
                    continue
                fails.require(code == 0, f"cli {sub} {argv}: exit code {code}")
                with open(cert, "rb") as fh:
                    certs.append(fh.read())
            fails.require(
                len(certs) == 2 and certs[0] == certs[1],
                f"cli {sub} {argv}: certificates differ between two runs",
            )
        return walls


def _cli_main(fr, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return fr.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


# ======================================================================
# dd-sweep
# ======================================================================


class DDSweep(Workload):
    """verify_dd_zero on envelope complexes; integer arithmetic only."""

    name = "dd-sweep"
    sweep_phase = "sweep"
    # (poset, laurent bound, depth bound).  The 5-dimensional boundary is
    # swept at the smallest box that still moves every removed atom; the
    # smaller posets at larger boxes with positive depth.
    SWEEPS = (("bd_simplex5", 1, 0), ("tetrahedron_boundary", 2, 3), ("glued3", 3, 3))
    CONTROL = ("glued3", 1, 1)

    def __init__(self, fr, seed):
        super().__init__(fr, seed)
        self.add_family("bd_simplex5")
        obj = json.loads(fr.bundled.bundled_poset_text("tetrahedron_boundary"))
        self.inputs["tetrahedron_boundary"] = Input(
            "tetrahedron_boundary", obj, simplex_boundary_facets(4), True
        )
        self.add_family("glued3")
        covers = sorted(tuple(c) for c in self.inputs[self.CONTROL[0]].obj["covers"])
        self.flip = self.rng.choice(covers)

    def setup_extra(self, fr, m, poset, ring, field):
        m.call("setup", fr.build_gamma, ring)

    def round(self, fr, m):
        out = {}
        gammas = {}
        for label, lb, db in self.SWEEPS:
            inp = self.inputs[label]
            poset = m.call("build", fr.SimplicialPoset.from_json_obj, inp.obj)
            ring = m.call("build", fr.PolyRing, poset) if _ok(poset) else FAILED
            gc = m.call("build", fr.build_gamma, ring) if _ok(ring) else FAILED
            if not _ok(gc):
                continue
            faces = inp.faces
            units = sum(
                faces.box_size(x, lb, db) for x in faces.elements if faces.rank[x] >= 2
            )
            rep = m.call(self.sweep_phase, fr.verify_dd_zero, gc, lb, db, units=units)
            gammas[label] = gc
            out[label] = (gc, rep)
        label, lb, db = self.CONTROL
        if label in gammas:
            gc = gammas[label]
            flipped = fr.EnvelopeComplex(gc.ring, gc.terms, dict(gc.maps))
            sign, cmap = flipped.maps[self.flip]
            flipped.maps[self.flip] = (-sign, cmap)
            out["control"] = (flipped, m.call("control", fr.verify_dd_zero, flipped, lb, db))
        return out

    def digest(self, outputs):
        return tuple(
            (
                key,
                rep is FAILED or (
                    rep.passed,
                    tuple(sorted(rep.details["rank2_intervals"].items())),
                    json.dumps(rep.witness, sort_keys=True),
                ),
            )
            for key, (_, rep) in sorted(outputs.items())
        )

    def check(self, fr, outputs, fails):
        for label, lb, db in self.SWEEPS:
            if label not in outputs:
                continue
            gc, rep = outputs[label]
            faces = self.inputs[label].faces
            self._check_signs(label, self.inputs[label].obj, faces, gc, fails)
            if rep is FAILED:
                continue
            fails.require(rep.passed, f"{label}: dd sweep fails on a valid poset: {rep.witness}")
            want = {f"[{w} < {x}]" for w, x, _ in faces.diamonds()}
            got = rep.details["rank2_intervals"]
            fails.require(set(got) == want, f"{label}: reported diamonds differ from the rank-2 intervals")
            fails.require(all(got.values()), f"{label}: a diamond does not cancel")
        if "control" not in outputs or outputs["control"][1] is FAILED:
            return
        rep = outputs["control"][1]
        faces = self.inputs[self.CONTROL[0]].faces
        u, l = self.flip
        if not fails.require(not rep.passed, f"control: sweep passes with the sign of {u}>{l} flipped"):
            return
        x, w = rep.witness["source"], rep.witness["target"]

        def holds(w, x):
            return (
                faces.rank[x] - faces.rank[w] == 2
                and faces.leq(w, l)
                and faces.leq(u, x)
                and (u == x or l == w)
            )

        fails.require(holds(w, x), f"control: witness [{w} < {x}] misses the flipped cover {u}>{l}")
        fails.require(
            rep.details["rank2_intervals"].get(f"[{w} < {x}]") is False,
            "control: witness diamond is not marked as failing",
        )

    @staticmethod
    def _check_signs(label, obj, faces, gc, fails):
        want = {tuple(c) for c in obj["covers"]}
        fails.require(set(gc.maps) == want, f"{label}: gamma does not carry every cover")
        for (u, l), (sign, _) in gc.maps.items():
            fails.require(sign == faces.sign(u, l), f"{label}: sign of {u}>{l} is {sign}")
        for w, x, mids in faces.diamonds():
            if not fails.require(len(mids) == 2, f"{label}: [{w} < {x}] has {len(mids)} middles"):
                continue
            z1, z2 = mids
            total = faces.sign(x, z1) * faces.sign(z1, w) + faces.sign(x, z2) * faces.sign(z2, w)
            fails.require(total == 0, f"{label}: signs on [{w} < {x}] do not cancel")

    def cli_jobs(self, files):
        g, t = files["glued3"], files["tetrahedron_boundary"]
        return (
            ("validate", [g]),
            ("ring", ["--poset", g, "--primes"]),
            ("envelope", ["--poset", g, "--deg", "1,1,0", "--depth", "2"]),
            ("cleanmap", ["--poset", g, "--box", "1", "--depth", "2"]),
            ("complex", ["--poset", t, "--oracle", "--dd", "--box", "1", "--depth", "1"]),
        )


# ======================================================================
# envelope-solve
# ======================================================================


class EnvelopeSolve(Workload):
    """Annihilators, cleanness, linearity, chain agreement, base change and
    essential witnesses, over Q, F2 and F3."""

    name = "envelope-solve"
    sweep_phase = "annihilators"
    FIELDS = ("Q", "F2", "F3")
    # poset -> largest degree entry of the annihilator box
    ANN_BOX = {"tetrahedron": 1, "glued3": 2}
    DEPTHS = (1, 2, 3)
    LINEARITY = (1, 1)
    CLEAN_DEPTH = 4
    STD_BOX = (2, 2)
    # chain agreement on the standard box is the costliest check; one field
    # per poset keeps the round short while every field is swept somewhere
    CHAINS = {("tetrahedron", "Q"), ("glued3", "F2"), ("glued3", "F3")}
    IMAGES_PER_COVER = 4
    WITNESSES = 12
    TAU_BOX = (1, 2)

    def __init__(self, fr, seed):
        super().__init__(fr, seed)
        self.add_family("tetrahedron")
        self.add_family("glued3")
        rng = self.rng
        self.samples = {}
        self.witness_inputs = {}
        for label, inp in self.inputs.items():
            faces = inp.faces
            for fname in self.FIELDS:
                for u, l in inp.obj["covers"]:
                    self.samples[(label, fname, u, l)] = [
                        _random_monomial(faces, u, rng, 2, 2)
                        for _ in range(self.IMAGES_PER_COVER)
                    ]
                xs = faces.elements
                self.witness_inputs[(label, fname)] = [
                    _random_element(faces, xs[k % len(xs)], rng)
                    for k in range(self.WITNESSES)
                ]
        faces = self.inputs["tetrahedron"].faces
        tops = [x for x in faces.elements if faces.rank[x] >= 2]
        self.tau_at = {}
        for fname in self.FIELDS:
            x = rng.choice(tops)
            self.tau_at[fname] = (x, rng.choice(faces.lower[x]))

    def setup_fields(self, fr, label):
        fs = fields(fr)
        return tuple(fs[f] for f in self.FIELDS)

    def round(self, fr, m):
        out = {}
        fs = fields(fr)
        for fname in self.FIELDS:
            field = fs[fname]
            for label, inp in self.inputs.items():
                poset = m.call("build", fr.SimplicialPoset.from_json_obj, inp.obj)
                ring = m.call("build", fr.PolyRing, poset, field) if _ok(poset) else FAILED
                gens = m.call("build", lambda: ring.generators()) if _ok(ring) else FAILED
                if _ok(gens):
                    out[(label, fname)] = self._solve(fr, m, inp, ring, fname)
        return out

    def _solve(self, fr, m, inp, ring, fname):
        faces = inp.faces
        label = inp.label
        one = ring.field.one
        res = {"ring": ring, "ann": {}, "clean": {}, "lin": {}, "images": {}, "chains": [], "witness": []}
        n = len(faces.atoms)
        for x in faces.elements:
            env = m.call("annihilators", fr.Envelope.of, ring, x)
            if not _ok(env):
                continue
            for a in product(range(self.ANN_BOX[label] + 1), repeat=n):
                for d in self.DEPTHS:
                    res["ann"][(x, a, d)] = m.call(
                        "annihilators", env.annihilator_basis, a, d, units=1
                    )
        lb, db = self.LINEARITY
        for u, l in inp.obj["covers"]:
            cmap = m.call("maps", fr.cover_map, ring, u, l)
            if not _ok(cmap):
                continue
            res["clean"][(u, l)] = m.call("maps", fr.check_clean, cmap, depth_bound=self.CLEAN_DEPTH)
            res["lin"][(u, l)] = m.call(
                "linearity", fr.check_linearity, cmap, laurent_bound=lb, depth_bound=db,
                units=faces.box_size(u, lb, db),
            )
            src = cmap.source_env
            for mon in self.samples[(label, fname, u, l)]:
                img = m.call("images", lambda: cmap(src.element({mon: one})), units=1)
                res["images"][(u, l, mon)] = img
        if (label, fname) in self.CHAINS:
            res["chains"] = self._chains(fr, m, faces, ring)
        for x, terms in self.witness_inputs[(label, fname)]:

            def make(x=x, terms=terms):
                env = fr.Envelope.of(ring, x)
                return env, env.element({k: ring.field.from_int(c) for k, c in terms.items()})

            made = m.call("witness", make)
            if _ok(made):
                env, elem = made
                res["witness"].append((env, elem, m.call("witness", env.essential_witness, elem)))
        if label == "tetrahedron":
            res["tau"] = m.call("tau", self._tau_roundtrip, fr, ring, *self.tau_at[fname])
        return res

    def _chains(self, fr, m, faces, ring):
        """All saturated chains between each pair agree on the standard box;
        returns (x, z, images compared, disagreeing monomial or None)."""
        lb, db = self.STD_BOX
        one = ring.field.one
        found = []
        for x in faces.elements:
            for z in faces.elements:
                if z == x or not faces.leq(z, x):
                    continue
                chains = m.call("chains", ring.poset.saturated_chains, x, z)
                if not _ok(chains) or len(chains) < 2:
                    continue

                def agree(chains=chains, x=x):
                    maps = [fr.chain_map(ring, ch) for ch in chains]
                    env = fr.Envelope.of(ring, x)
                    box = list(env.monomial_box(lb, depth_bound=db))
                    for mon in box:
                        e = env.element({mon: one})
                        first = maps[0](e)
                        if any(mp(e) != first for mp in maps[1:]):
                            return len(box) * len(maps), mon
                    return len(box) * len(maps), None

                units = faces.box_size(x, lb, db) * len(chains)
                got = m.call("chains", agree, units=units)
                if _ok(got):
                    found.append((x, z, got[0], got[1]))
        return found

    @staticmethod
    def _tau_roundtrip(fr, ring, x, lower):
        """Base-change roundtrip: psi after a non-clean automorphism is not
        clean, psi after its conjugate tau equals it on the box, and the
        series inverse of tau repairs it."""
        lb, db = EnvelopeSolve.TAU_BOX
        psi = fr.cover_map(ring, x, lower)
        sigma = fr.nonclean_automorphism(ring, x, ring.field.one)
        phi = fr.compose_maps(psi, sigma)
        not_clean = not fr.check_clean(phi, depth_bound=EnvelopeSolve.CLEAN_DEPTH).passed
        env = fr.Envelope.of(ring, x)
        box = list(env.monomial_box(lb, depth_bound=db))
        tau = fr.materialize_tau(phi, box)
        both = fr.compose_maps(psi, tau)
        agree = all(both(env.element({mon: ring.field.one})) == phi(env.element({mon: ring.field.one})) for mon in box)
        repaired = fr.check_clean(
            fr.compose_maps(phi, fr.neumann_inverse(tau)), depth_bound=EnvelopeSolve.CLEAN_DEPTH
        ).passed
        return not_clean, agree, repaired

    def digest(self, outputs):
        out = []
        for key, res in sorted(outputs.items()):
            out.append((
                key,
                tuple(
                    (k, v is FAILED or tuple(_coeffs(b.terms) for b in v))
                    for k, v in sorted(res["ann"].items())
                ),
                tuple((k, v is FAILED or v.passed) for k, v in sorted(res["clean"].items())),
                tuple((k, v is FAILED or v.passed) for k, v in sorted(res["lin"].items())),
                tuple((k, v is FAILED or _coeffs(v.terms)) for k, v in sorted(res["images"].items())),
                tuple(res["chains"]),
                tuple(f is FAILED or _coeffs(f.terms) for _, _, f in res["witness"]),
                str(res.get("tau")),
            ))
        return tuple(out)

    def check(self, fr, outputs, fails):
        for (label, fname), res in sorted(outputs.items()):
            inp = self.inputs[label]
            faces = inp.faces
            ring = res["ring"]
            where = f"{label}/{fname}"
            char = 0 if fname == "Q" else int(fname[1:])
            gens = [g.terms for g in ring.generators()]
            for (x, a, d), basis in res["ann"].items():
                if basis is FAILED:
                    continue
                supp = {faces.atoms[g] for g, v in enumerate(a) if v > 0}
                want = 1 if supp <= faces.atom_set[x] else 0
                fails.require(len(basis) == want, f"{where}: annihilator dim {len(basis)} != {want} at {x} {a} depth {d}")
                env = fr.Envelope.of(ring, x)
                for b in basis:
                    for g in gens:
                        if checks.subset_poly_action(faces, env, g, b.terms):
                            fails.require(False, f"{where}: a generator does not kill the annihilator at {x} {a}")
                            break
            for cover, rep in res["clean"].items():
                fails.require(rep is FAILED or rep.passed, f"{where}: cover {cover} not clean")
            for cover, rep in res["lin"].items():
                fails.require(rep is FAILED or rep.passed, f"{where}: cover {cover} not linear: {rep.witness if rep is not FAILED else ''}")
            for (u, l, mon), img in res["images"].items():
                if img is FAILED:
                    continue
                src, tgt = fr.Envelope.of(ring, u), fr.Envelope.of(ring, l)
                want = checks.cover_image(
                    faces, char, u, l, src.atoms, src.inv_vars, tgt.atoms, tgt.inv_vars, mon
                )
                got = {k: str(c) for k, c in img.terms.items()}
                fails.require(got == want, f"{where}: image of {mon} under {u}>{l} breaks the transfer formula")
            for x, z, _, bad in res["chains"]:
                fails.require(bad is None, f"{where}: chains from {x} to {z} disagree at {bad}")
            for env, elem, f in res["witness"]:
                if f is FAILED:
                    continue
                got = checks.subset_poly_action(faces, env, f.terms, elem.terms)
                fails.require(got and checks.in_base(got), f"{where}: witness at {env.x} does not land in the base")
            tau = res.get("tau")
            if tau is not None and tau is not FAILED:
                fails.require(all(tau), f"{where}: base-change roundtrip (not clean, agree, repaired) = {tau}")

    def cli_jobs(self, files):
        t = files["tetrahedron"]
        return (
            ("validate", [t]),
            ("ring", ["--poset", t, "--primes"]),
            ("envelope", ["--poset", t, "--deg", "1,1,0,0", "--depth", "2", "--field", "F3"]),
            ("cleanmap", ["--poset", t, "--box", "1", "--depth", "2", "--tau-roundtrip", "--field", "F2"]),
            ("complex", ["--poset", t, "--oracle", "--a", "1,0,0,0"]),
        )


def _random_monomial(faces, x, rng, laurent, depth):
    """Seeded basis monomial at x: Laurent part in the box, inverse part of
    bounded depth (inverse variables are all variables but the atoms under x)."""
    atoms = [a for a in faces.atoms if a in faces.atom_set[x]]
    inv_vars = [z for z in faces.variables if z not in atoms]
    lau = tuple(rng.randint(-laurent, laurent) for _ in atoms)
    inv = [0] * len(inv_vars)
    budget = rng.randint(0, depth)
    order = list(range(len(inv_vars)))
    rng.shuffle(order)
    for j in order:
        w = faces.rank[inv_vars[j]]
        if w <= budget and rng.random() < 0.5:
            e = rng.randint(1, budget // w)
            inv[j] = e
            budget -= e * w
    return (lau, tuple(inv))


def _random_element(faces, x, rng):
    """Seeded nonzero combination of up to three monomials at x, with
    nonzero integer coefficients that stay nonzero in F2 and F3."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[_random_monomial(faces, x, rng, 2, 3)] = rng.choice((1, -1))
    return x, terms


# ======================================================================
# face-slices
# ======================================================================


class FaceSlices(Workload):
    """Scalar-complex cohomology against the simplicial oracle on every 0/1
    degree slice, and straightening of seeded products."""

    name = "face-slices"
    sweep_phase = "slices"
    # poset -> fields; the oracle dominates on the 6-dimensional boundary,
    # so it runs once, over Q, where its answer has no torsion to miss
    POSETS = (
        ("bd_simplex6", ("Q",)),
        ("torus7", ("Q", "F2")),
        ("rp2_6", ("Q", "F2")),
        ("glued4", ("Q", "F2")),
    )
    QUERIES = 60

    def __init__(self, fr, seed):
        super().__init__(fr, seed)
        for label, _ in self.POSETS:
            self.add_family(label)
        self.queries = {}
        for label, fnames in self.POSETS:
            faces = self.inputs[label].faces
            vs = faces.variables
            gens = sum(not faces.comparable(p, q) for i, p in enumerate(vs) for q in vs[i + 1:])
            for fname in fnames:
                self.queries[(label, fname)] = [
                    _random_query(faces, self.rng, chain=k % 2 == 0, ngens=gens)
                    for k in range(self.QUERIES)
                ]

    def setup_fields(self, fr, label):
        fs = fields(fr)
        return tuple(fs[f] for f in dict(self.POSETS)[label])

    def setup_extra(self, fr, m, poset, ring, field):
        m.call("setup", fr.build_scalar_complex, poset, field)

    def round(self, fr, m):
        out = {}
        fs = fields(fr)
        for label, fnames in self.POSETS:
            inp = self.inputs[label]
            poset = m.call("build", fr.SimplicialPoset.from_json_obj, inp.obj)
            if not _ok(poset):
                continue
            n = len(inp.faces.atoms)
            for fname in fnames:
                field = fs[fname]
                ring = m.call("build", fr.PolyRing, poset, field)
                gens = m.call("build", lambda: ring.generators()) if _ok(ring) else FAILED
                sc = m.call("build", fr.build_scalar_complex, poset, field)
                res = {"slices": {}, "queries": []}
                out[(label, fname)] = res
                if _ok(sc):
                    for a in product((0, 1), repeat=n):
                        dims = m.call(self.sweep_phase, fr.cohomology_dims_at, sc, a, units=1)
                        oracle = (
                            m.call(self.sweep_phase, fr.simplicial_oracle, poset, a, field)
                            if inp.is_complex
                            else None
                        )
                        res["slices"][a] = (dims, oracle)
                if _ok(gens):
                    for q in self.queries[(label, fname)]:
                        res["queries"].append(self._straighten(m, ring, gens, q))
        return out

    @staticmethod
    def _straighten(m, ring, gens, query):
        exps, _, gi, h = query
        res = {"query": query, "f": FAILED, "hi": FAILED, "lo": FAILED, "moved": FAILED}
        f = res["f"] = m.call("straighten", ring.monomial, exps)
        if not _ok(f):
            return res
        res["hi"] = m.call("straighten", ring.straighten_stats, f, "max-monomial", units=1)
        res["lo"] = m.call("straighten", ring.straighten_stats, f, "min-monomial", units=1)
        res["moved"] = m.call(
            "straighten", lambda: ring.straighten(f + gens[gi] * ring.monomial(h)), units=1
        )
        for r in (res["hi"], res["lo"]):
            if _ok(r):
                m.count("ring.rewrites", r[1])
        return res

    def digest(self, outputs):
        out = []
        for key, res in sorted(outputs.items()):
            slices = tuple(
                (a, _dims_key(d), _dims_key(o)) for a, (d, o) in sorted(res["slices"].items())
            )
            queries = tuple(
                tuple(
                    "failed" if v is FAILED else _coeffs(v[0].terms) + (v[1],) if isinstance(v, tuple)
                    else _coeffs(v.terms)
                    for v in (q["f"], q["hi"], q["lo"], q["moved"])
                )
                for q in res["queries"]
            )
            out.append((key, slices, queries))
        return tuple(out)

    def check(self, fr, outputs, fails):
        for (label, fname), res in sorted(outputs.items()):
            inp = self.inputs[label]
            faces = inp.faces
            where = f"{label}/{fname}"
            char = 0 if fname == "Q" else int(fname[1:])
            for a, (dims, oracle) in res["slices"].items():
                if dims is FAILED:
                    continue
                if inp.is_complex and oracle is not FAILED:
                    fails.require(dims == oracle, f"{where}: slice {a}: {dims} != oracle {oracle}")
                fails.require(
                    checks.euler_defect(faces, a, dims) == 0,
                    f"{where}: slice {a} breaks the Euler characteristic identity",
                )
                if not any(a):
                    want = checks.textbook_reduced(label, char, faces.max_rank)
                    fails.require(dims == want, f"{where}: reduced cohomology {dims} != {want}")
            for q in res["queries"]:
                if not _ok(q["f"], q["hi"], q["lo"], q["moved"]):
                    continue
                exps, chain, _, _ = q["query"]
                nf = q["hi"][0]
                deg = checks.mon_degree(faces, _exps_key(faces, exps))
                fails.require(nf.terms == q["lo"][0].terms, f"{where}: strategies disagree on {exps}")
                fails.require(
                    q["moved"].terms == nf.terms,
                    f"{where}: adding a generator multiple changes the normal form of {exps}",
                )
                for t in nf.terms:
                    fails.require(checks.is_chain_support(faces, t), f"{where}: normal form of {exps} is not chain-supported")
                    fails.require(checks.mon_degree(faces, t) == deg, f"{where}: normal form of {exps} changes degree")
                if chain:
                    fails.require(nf.terms == q["f"].terms, f"{where}: chain monomial {exps} is rewritten")

    def cli_jobs(self, files):
        t, r = files["torus7"], files["rp2_6"]
        return (
            ("validate", [t]),
            ("ring", ["--poset", r, "--straighten", "t[12]*t[34]*t[5]", "--member", "t[1]*t[2]*t[3]"]),
            ("envelope", ["--poset", r, "--deg", "1,1,0,0,0,0", "--depth", "1", "--field", "F2"]),
            ("cleanmap", ["--poset", r, "--check-clean", "--depth", "2"]),
            ("complex", ["--poset", t, "--oracle", "--field", "F2"]),
        )


def _dims_key(d):
    if d is None or d is FAILED:
        return "none" if d is None else "failed"
    return tuple(sorted(d.items()))


def _exps_key(faces, exps):
    return tuple(exps.get(z, 0) for z in faces.variables)


def _random_query(faces, rng, chain, ngens):
    """A seeded product of variables, chain-supported or not, plus the
    generator index and monomial of a multiple to add to it."""
    if chain:
        # walk down from a random element through random lower covers
        path = [rng.choice(faces.variables)]
        while faces.rank[path[-1]] > 1:
            path.append(rng.choice(faces.lower[path[-1]]))
        support = rng.sample(path, rng.randint(1, min(3, len(path))))
    else:
        while True:
            support = rng.sample(faces.variables, rng.randint(2, 4))
            if any(not faces.comparable(p, q) for i, p in enumerate(support) for q in support[i + 1:]):
                break
    exps = {z: rng.randint(1, 2) for z in support}
    h = {rng.choice(faces.variables): 1}
    return exps, chain, rng.randrange(ngens), h


WORKLOADS = {w.name: w for w in (DDSweep, EnvelopeSolve, FaceSlices)}
