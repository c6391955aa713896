"""Command-line front end.

Subcommands: validate | ring | envelope | cleanmap | complex.  Output is
deterministic byte for byte for a fixed configuration: element and atom
orders come from the input file, rewriting is deterministic, and JSON
certificates are written with sorted keys.

Exit codes: 0 pass, 1 validation failure, 2 usage or IO error, 3 property
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundled import BUNDLED, resolve_poset
from .cleanmap import (
    StabilizationError,
    check_clean,
    check_linearity,
    compose_maps,
    cover_map,
    materialize_tau,
    neumann_inverse,
    nonclean_automorphism,
)
from .complexes import (
    build_gamma,
    build_scalar_complex,
    complex_report,
    dd_sweep_size,
    verify_dd_zero,
)
from .envelope import Envelope
from .poset import PosetError, validate_simplicial
from .ring import PolyRing
from .scalars import FieldError, field_from_name

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3


def _write_cert(args, cert):
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, sort_keys=True, indent=2)
            fh.write("\n")


class _InvalidPoset(Exception):
    """The poset breaks a simpliciality axiom; its violations are printed."""


def _print_violations(report):
    for axiom, witness in report.violations:
        print(f"violation {axiom}: {' '.join(witness)}")


def _load(args):
    """Poset and ring named by --poset and --field; the poset is validated
    first, so a broken one stops the command before any other output."""
    poset = resolve_poset(args.poset)
    report = validate_simplicial(poset)
    if not report.ok:
        _print_violations(report)
        raise _InvalidPoset
    return poset, PolyRing(poset, field_from_name(args.field, args.prime))


def _parse_vector(text, n, what):
    try:
        vec = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise FieldError(f"bad {what} vector {text!r}") from exc
    if len(vec) != n:
        raise FieldError(f"{what} vector needs {n} entries, got {len(vec)}")
    return vec


_WARN_SIZE = 5_000_000


def _warn_if_long(what, size):
    """Warn on stderr, without stopping, before sweeps that expand more than
    _WARN_SIZE monomials."""
    if size > _WARN_SIZE:
        print(
            f"warning: {what} {size} monomials; this may take very long",
            file=sys.stderr,
        )


def _warn_if_dd_long(ring, laurent_bound, depth_bound):
    """Exact number of monomials the dd sweep expands; warn, don't stop."""
    size = dd_sweep_size(ring, laurent_bound, depth_bound)
    _warn_if_long("the dd sweep expands", size)


def _warn_if_cleanmap_long(ring, run_clean, run_lin, x, laurent_bound, depth_bound):
    """Exact number of source monomials the selected cleanmap sweeps walk:
    per cover, the clean sweep's degree-zero monomials and the linearity
    box; for a roundtrip at x (None for none), the box at x.  Warn, don't
    stop."""
    zero = (0,) * ring.natoms
    size = 0
    for u, _ in ring.poset.covers:
        env = Envelope.of(ring, u)
        if run_clean:
            size += len(env.monomials_of_degree(zero, depth_bound, depth_min=1))
        if run_lin:
            size += env.box_size(laurent_bound, depth_bound)
    if x is not None:
        size += Envelope.of(ring, x).box_size(laurent_bound, depth_bound)
    _warn_if_long("the cleanmap sweeps expand", size)


def cmd_validate(args):
    poset = resolve_poset(args.poset)
    report = validate_simplicial(poset)
    if report.ok:
        print("ok")
    _print_violations(report)
    _write_cert(args, report.to_json())
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_ring(args):
    poset, ring = _load(args)
    member_polys = [(text, ring.parse(text)) for text in args.member or ()]
    straighten_polys = [(text, ring.parse(text)) for text in args.straighten or ()]
    cert = {"poset": args.poset, "field": ring.field.name}
    print("generators:")
    gens = []
    for f in ring.generators():
        s = ring.format(f)
        gens.append(ring.poly_to_json(f))
        print(f"  {s}")
    cert["generators"] = gens
    print("variable degrees:")
    cert["degrees"] = {}
    for z in ring.variables:
        d = ring.variable_degree(z)
        cert["degrees"][z] = list(d)
        print(f"  t[{z}]: {d}")
    w = ring.degree_sum()
    cert["degree_sum"] = list(w)
    print(f"degree sum: {w}")
    if args.primes:
        print("graded primes:")
        cert["primes"] = {}
        for x in poset.elements:
            killed, reduced = ring.prime_generators(x)
            names = [f"t[{z}]" for z in killed] + [ring.format(g) for g in reduced]
            cert["primes"][x] = names
            print(f"  p[{x}] = ({', '.join(names) or '0'})")
    queries = []
    for text, f in member_polys:
        val = ring.is_ideal_member(f)
        queries.append({"member": text, "result": val})
        print(f"member {text}: {'true' if val else 'false'}")
    for text, f in straighten_polys:
        nf = ring.straighten(f)
        queries.append({"straighten": text, "result": ring.format(nf)})
        print(f"straighten {text}: {ring.format(nf)}")
    cert["queries"] = queries
    _write_cert(args, cert)
    return EXIT_OK


def cmd_envelope(args):
    poset, ring = _load(args)
    deg = _parse_vector(args.deg, ring.natoms, "degree")
    if any(v < 0 for v in deg):
        raise FieldError("degree entries must be non-negative")
    targets = [args.x] if args.x else list(poset.elements)
    print(f"annihilator dimensions at deg={list(deg)}, depth <= {args.depth}:")
    dims = {}
    expected = {}
    ok = True
    for x in targets:
        if x not in poset:
            raise PosetError(f"unknown element {x!r}")
        env = Envelope.of(ring, x)
        basis = env.annihilator_basis(deg, args.depth)
        dims[x] = len(basis)
        supp = {poset.atoms[g] for g, v in enumerate(deg) if v > 0}
        expected[x] = 1 if supp <= set(poset.atoms_below(x)) else 0
        status = "ok" if dims[x] == expected[x] else "MISMATCH"
        ok = ok and dims[x] == expected[x]
        print(f"{x}: dim={dims[x]} expected={expected[x]} {status}")
    cert = {
        "poset": args.poset,
        "field": ring.field.name,
        "deg": list(deg),
        "depth": args.depth,
        "dims": dims,
        "expected": expected,
        "match": ok,
    }
    _write_cert(args, cert)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_cleanmap(args):
    poset, ring = _load(args)
    selected = args.check_clean or args.check_linearity or args.tau_roundtrip
    run_clean = args.check_clean or not selected
    run_lin = args.check_linearity or not selected
    x = None
    if args.tau_roundtrip:
        ranked = [e for e in poset.elements if poset.rank_of(e) >= 2]
        x = args.x or next(iter(ranked), None)
        if x not in ranked:
            raise PosetError(
                f"{x!r} is not an element of rank at least 2"
                if x
                else "no element of rank at least 2 for the roundtrip"
            )
        if args.depth < poset.rank_of(x):
            raise PosetError(
                f"the roundtrip perturbs through t[{x}]^-1, of depth "
                f"{poset.rank_of(x)}; it needs --depth {poset.rank_of(x)} or more"
            )
    # held for the whole command, so each envelope is built once
    maps = [(u, l, cover_map(ring, u, l)) for u, l in poset.covers]
    _warn_if_cleanmap_long(ring, run_clean, run_lin, x, args.box, args.depth)
    reports = []
    ok = True
    for u, l, m in maps:
        if run_clean:
            rep = check_clean(m, depth_bound=args.depth)
            reports.append({"cover": [u, l], **rep.to_json()})
            print(
                f"clean {u}>{l}: {'pass' if rep.passed else 'fail'} "
                f"(depth <= {args.depth})"
            )
            ok = ok and rep.passed
        if run_lin:
            rep = check_linearity(m, laurent_bound=args.box, depth_bound=args.depth)
            reports.append({"cover": [u, l], **rep.to_json()})
            print(
                f"linearity {u}>{l}: {'pass' if rep.passed else 'fail'} "
                f"(|laurent| <= {args.box}, depth <= {args.depth})"
            )
            ok = ok and rep.passed
    if x is not None:
        lowers = poset.lower_covers(x)
        psi = cover_map(ring, x, lowers[0])
        sigma = nonclean_automorphism(ring, x, ring.field.one)
        phi = compose_maps(psi, sigma)
        not_clean = not check_clean(phi, depth_bound=args.depth).passed
        env = Envelope.of(ring, x)
        box = list(env.monomial_box(args.box, depth_bound=args.depth))
        tau = materialize_tau(phi, box)
        agree = all(
            compose_maps(psi, tau)(env.element({mon: ring.field.one}))
            == phi(env.element({mon: ring.field.one}))
            for mon in box
        )
        tau_inv = neumann_inverse(tau)
        recovered = check_clean(compose_maps(phi, tau_inv), depth_bound=args.depth).passed
        roundtrip_ok = not_clean and agree and recovered
        reports.append(
            {
                "property": "base-change roundtrip",
                "box": {"laurent": args.box, "depth": args.depth},
                "status": "pass" if roundtrip_ok else "fail",
                "at": x,
            }
        )
        print(
            f"tau roundtrip at {x}: {'pass' if roundtrip_ok else 'fail'} "
            f"(|laurent| <= {args.box}, depth <= {args.depth})"
        )
        ok = ok and roundtrip_ok
    cert = {"poset": args.poset, "field": ring.field.name, "reports": reports}
    _write_cert(args, cert)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_complex(args):
    poset, ring = _load(args)
    sc = build_scalar_complex(poset, ring.field)
    a = _parse_vector(args.a, ring.natoms, "degree") if args.a else (0,) * ring.natoms
    rep = complex_report(sc, a, args.poset, with_oracle=args.oracle)
    print(f"dims at a={list(a)}:")
    for i in sorted(rep["dims"], key=int):
        print(f"  H^{i} = {rep['dims'][i]}")
    ok = True
    if args.oracle:
        print(f"match: {'true' if rep['match'] else 'false'}")
        ok = ok and bool(rep["match"])
    if args.dd:
        # built first, so its maps hold every envelope the size count uses
        gc = build_gamma(ring)
        _warn_if_dd_long(ring, args.box, args.depth)
        dd = verify_dd_zero(gc, laurent_bound=args.box, depth_bound=args.depth)
        rep["dd"] = dd.to_json()
        print(
            f"dd-zero: {'pass' if dd.passed else 'fail'} "
            f"(|laurent| <= {args.box}, depth <= {args.depth}, "
            f"checked {dd.checked})"
        )
        ok = ok and dd.passed
        clean_ok = True
        for (u, l), (_, m) in gc.maps.items():
            crep = check_clean(m, depth_bound=args.clean_depth)
            clean_ok = clean_ok and crep.passed
        rep["differentials_clean"] = clean_ok
        print(
            f"differentials clean: {'pass' if clean_ok else 'fail'} "
            f"(depth <= {args.clean_depth})"
        )
        ok = ok and clean_ok
    _write_cert(args, rep)
    return EXIT_OK if ok else EXIT_PROPERTY


def _bound(text):
    """A non-negative integer: the type of --box, --depth and --clean-depth."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="facering",
        description="Exact face-ring and graded-envelope computations on "
        "simplicial posets.",
        epilog=f"Bundled posets (usable wherever a poset path is expected): "
        f"{', '.join(BUNDLED)}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the simpliciality axioms")
    p.add_argument("poset", help="poset JSON file or bundled name")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_validate)

    def common(p):
        p.add_argument("--poset", required=True, help="poset JSON file or bundled name")
        p.add_argument("--field", default="Q", help="Q, F2, F3, ... or Fp with --prime")
        p.add_argument("--prime", type=int)
        p.add_argument("--json", dest="json_path")

    p = sub.add_parser("ring", help="defining relations, grading, membership")
    common(p)
    p.add_argument("--member", action="append", metavar="POLY")
    p.add_argument("--straighten", action="append", metavar="POLY")
    p.add_argument("--primes", action="store_true", help="list the graded primes")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("envelope", help="annihilator sweeps on the envelopes")
    common(p)
    p.add_argument("--deg", required=True, help="comma-separated degree vector")
    p.add_argument("--depth", type=_bound, default=3)
    p.add_argument("--x", help="restrict to one element")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("cleanmap", help="certify cover maps")
    common(p)
    p.add_argument("--check-clean", action="store_true")
    p.add_argument("--check-linearity", action="store_true")
    p.add_argument("--tau-roundtrip", action="store_true")
    p.add_argument("--box", type=_bound, default=2, help="Laurent exponent bound")
    p.add_argument("--depth", type=_bound, default=3)
    p.add_argument("--x", help="element for the roundtrip")
    p.set_defaults(func=cmd_cleanmap)

    p = sub.add_parser("complex", help="degree slices, oracle, differential checks")
    common(p)
    p.add_argument("--a", help="comma-separated degree vector (default all zero)")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--dd", action="store_true", help="verify consecutive differentials")
    p.add_argument("--box", type=_bound, default=2)
    p.add_argument("--depth", type=_bound, default=2)
    p.add_argument("--clean-depth", type=_bound, default=3)
    p.set_defaults(func=cmd_complex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InvalidPoset:
        return EXIT_INVALID
    except (PosetError, FieldError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilizationError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
