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
import os
import sys

from .bundled import BUNDLED, resolve_poset
from .cleanmap import (
    CertReport,
    StabilizationError,
    check_clean,
    check_linearity,
    check_roundtrip,
    clean_sweep_size,
    cover_map,
    linearity_sweep_size,
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
from .scalars import field_from_name

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3


def _check_json_path(path):
    """Fail before any work when the certificate at path could not be
    written: its directory is missing or path is itself a directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write --json {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"cannot write --json {path}: no directory {parent}")


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
    return poset, PolyRing(poset, field_from_name(args.field))


def _parse_vector(text):
    """The comma-separated ints of a degree vector; its length is checked
    where it is used."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad degree vector {text!r}") from exc


_WARN_SIZE = 5_000_000


def _warn_if_long(what, size):
    """Warn on stderr, without stopping, before sweeps that expand more than
    _WARN_SIZE monomials."""
    if size > _WARN_SIZE:
        print(
            f"warning: {what} {size} monomials; this may take very long",
            file=sys.stderr,
        )


def _warn_if_cleanmap_long(ring, run_clean, run_lin, x, laurent_bound, depth_bound):
    """Exact number of source monomials the selected cleanmap sweeps walk:
    per cover, the clean sweep's degree-zero monomials and the monomials the
    active linearity sweep probes; for a roundtrip at x (None for none), the
    box at x.  Warn, don't stop."""
    size = 0
    for u, l in ring.poset.covers:
        env = Envelope.of(ring, u)
        if run_clean:
            size += clean_sweep_size(env, depth_bound)
        if run_lin:
            size += linearity_sweep_size(env, l, laurent_bound, depth_bound)
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
    deg = _parse_vector(args.deg)
    envs = {x: Envelope.of(ring, x) for x in ([args.x] if args.x else poset.elements)}
    # every dimension first: a bad degree raises before any output
    dims = {x: len(env.annihilator_basis(deg, args.depth)) for x, env in envs.items()}
    supp = {poset.atoms[g] for g, v in enumerate(deg) if v > 0}
    expected = {x: 1 if supp <= poset.atom_set(x) else 0 for x in envs}
    ok = dims == expected
    print(f"annihilator dimensions at deg={list(deg)}, depth <= {args.depth}:")
    for x in envs:
        status = "ok" if dims[x] == expected[x] else "MISMATCH"
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


def _print_status(label, rep, with_checked=False):
    """Print the report's status line, with the bounds it records and, if
    asked, its count of checked monomials; return whether it passed."""
    bits = [f"|laurent| <= {rep.bounds['laurent']}"] if "laurent" in rep.bounds else []
    bits.append(f"depth <= {rep.bounds['depth']}")
    if with_checked:
        bits.append(f"checked {rep.checked}")
    print(f"{label}: {'pass' if rep.passed else 'fail'} ({', '.join(bits)})")
    return rep.passed


def cmd_cleanmap(args):
    if args.x and not args.tau_roundtrip:
        raise PosetError("--x names the roundtrip element; it needs --tau-roundtrip")
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
            ok = _print_status(f"clean {u}>{l}", rep) and ok
        if run_lin:
            rep = check_linearity(m, laurent_bound=args.box, depth_bound=args.depth)
            reports.append({"cover": [u, l], **rep.to_json()})
            ok = _print_status(f"linearity {u}>{l}", rep) and ok
    if x is not None:
        lower = poset.lower_covers(x)[0]
        rep = check_roundtrip(ring, x, lower, args.box, args.depth)
        reports.append({"at": x, **rep.to_json()})
        ok = _print_status(f"tau roundtrip at {x}", rep) and ok
    cert = {"poset": args.poset, "field": ring.field.name, "reports": reports}
    _write_cert(args, cert)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_complex(args):
    poset, ring = _load(args)
    sc = build_scalar_complex(poset, ring.field)
    a = _parse_vector(args.a) if args.a else (0,) * ring.natoms
    rep = complex_report(sc, a, args.poset, with_oracle=args.oracle)
    print(f"dims at a={list(a)}:")
    for i in sorted(rep["dims"], key=int):
        print(f"  H^{i} = {rep['dims'][i]}")
    ok = True
    if args.oracle:
        print(f"match: {'true' if rep['match'] else 'false'}")
        ok = ok and bool(rep["match"])
    if args.dd:
        _warn_if_long("the dd sweep expands", dd_sweep_size(ring, args.box))
        gc = build_gamma(ring)
        dd = verify_dd_zero(gc, laurent_bound=args.box, depth_bound=args.depth)
        rep["dd"] = dd.to_json()
        ok = _print_status("dd-zero", dd, with_checked=True) and ok
        # the cover maps in order, up to the first that fails
        clean = CertReport("differentials clean", {"depth": args.clean_depth}, True)
        for (u, l), (_, m) in gc.maps.items():
            one = check_clean(m, args.clean_depth)
            clean.checked += one.checked
            if not one.passed:
                clean.passed, clean.witness = False, {"cover": [u, l], **one.witness}
                break
        rep["differentials_clean"] = clean.to_json()
        ok = _print_status("differentials clean", clean) and ok
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the simpliciality axioms", allow_abbrev=False)
    p.add_argument("poset", help="poset JSON file or bundled name")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_validate)

    def common(p):
        p.add_argument("--poset", required=True, help="poset JSON file or bundled name")
        p.add_argument("--field", default="Q", help="Q, F2, F3, ... or F<p>")
        p.add_argument("--json", dest="json_path")

    p = sub.add_parser("ring", help="defining relations, grading, membership", allow_abbrev=False)
    common(p)
    p.add_argument("--member", action="append", metavar="POLY")
    p.add_argument("--straighten", action="append", metavar="POLY")
    p.add_argument("--primes", action="store_true", help="list the graded primes")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("envelope", help="annihilator sweeps on the envelopes", allow_abbrev=False)
    common(p)
    p.add_argument("--deg", required=True, help="comma-separated degree vector")
    p.add_argument("--depth", type=_bound, default=3)
    p.add_argument("--x", help="restrict to one element")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("cleanmap", help="certify cover maps", allow_abbrev=False)
    common(p)
    p.add_argument("--check-clean", action="store_true")
    p.add_argument("--check-linearity", action="store_true")
    p.add_argument("--tau-roundtrip", action="store_true")
    p.add_argument("--box", type=_bound, default=2, help="Laurent exponent bound")
    p.add_argument("--depth", type=_bound, default=3)
    p.add_argument("--x", help="element for the roundtrip")
    p.set_defaults(func=cmd_cleanmap)

    p = sub.add_parser(
        "complex", help="degree slices, oracle, differential checks", allow_abbrev=False
    )
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
        if args.json_path:
            _check_json_path(args.json_path)
        return args.func(args)
    except _InvalidPoset:
        return EXIT_INVALID
    except StabilizationError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
