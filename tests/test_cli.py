import argparse
import json

import pytest

from facering import Envelope, PolyRing, bundled_poset
from facering import cli
from facering.bundled import bundled_poset_text
from facering.cleanmap import CertReport, check_clean, clean_sweep_size
from facering.cli import _warn_if_cleanmap_long, main
from facering.complexes import dd_sweep_size
from facering.scalars import QQ

from helpers import active_linearity_counts


def _bundled_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(bundled_poset_text(name), encoding="utf-8")
    return str(path)


def test_validate_ok(tmp_path, capsys):
    code = main(["validate", _bundled_file(tmp_path, "p1")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_bundled_name(capsys):
    assert main(["validate", "tetrahedron_boundary"]) == 0


def test_validate_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"elements": ["0", "a", "b"], "covers": [["a", "0"], ["b", "a"]]}',
        encoding="utf-8",
    )
    code = main(["validate", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "violation" in out and "boolean lower interval" in out


def test_validate_two_minima_is_missing_bottom(tmp_path, capsys):
    # the constructor owns the bottom check, so validate never starts
    path = tmp_path / "two_minima.json"
    path.write_text(
        '{"elements": ["0", "1", "a"], "covers": [["a", "0"], ["a", "1"]]}',
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing bottom" in captured.err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/poset.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(
        '{"elements": ["0", "a", "b"], "covers": [["a","0"],["a","b"],["b","a"]]}',
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 2
    assert "cycle" in capsys.readouterr().err


@pytest.mark.parametrize("cover", ['"a0"', '{"a": 1, "0": 2}', '["a", "0", "0"]'])
def test_validate_rejects_malformed_cover(tmp_path, capsys, cover):
    path = tmp_path / "bad_cover.json"
    path.write_text(
        f'{{"elements": ["0", "a"], "covers": [{cover}]}}', encoding="utf-8"
    )
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed cover entry" in captured.err


def test_ring_output(capsys):
    code = main(
        [
            "ring",
            "--poset",
            "p1",
            "--member",
            "t[x]*t[z]",
            "--straighten",
            "t[y1]*t[y2]",
            "--primes",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t[y1]*t[y2] - t[x] - t[z]" in out
    assert "t[x]*t[z]" in out
    assert "degree sum: (3, 3)" in out
    assert "member t[x]*t[z]: true" in out
    assert "straighten t[y1]*t[y2]: t[x] + t[z]" in out
    assert "p[x] = (t[z], t[y1]*t[y2] - t[x])" in out


def test_ring_bad_polynomial(capsys):
    assert main(["ring", "--poset", "p1", "--member", "t[nope]"]) == 2


def test_envelope_annihilator(capsys):
    code = main(["envelope", "--poset", "p1", "--deg", "1,1", "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x: dim=1 expected=1 ok" in out
    assert "0: dim=0 expected=0 ok" in out


def test_envelope_bad_degree(capsys):
    assert main(["envelope", "--poset", "p1", "--deg", "1"]) == 2
    assert main(["envelope", "--poset", "p1", "--deg", "a,b"]) == 2
    assert main(["envelope", "--poset", "p1", "--deg", "1,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be non-negative" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["envelope", "--poset", "p1", "--deg", "1,-1"],
         "degree entries must be non-negative, got (1, -1)"),
        (["envelope", "--poset", "p1", "--deg", "1"],
         "degree vector has the wrong length: needs 2 entries, got 1"),
        (["complex", "--poset", "p1", "--a", "1,2,3"],
         "degree vector has the wrong length: needs 2 entries, got 3"),
    ],
)
def test_degree_is_checked_once_before_output(capsys, argv, message):
    # the library's own degree checks, not the CLI, reject these
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ring_coefficients_over_prime_field(capsys):
    argv = ["ring", "--poset", "p1", "--field", "F3", "--straighten"]
    assert main([*argv, "4*t[y1]*t[y2]"]) == 0
    assert "straighten 4*t[y1]*t[y2]: t[x] + t[z]\n" in capsys.readouterr().out
    assert main([*argv, "1/2*t[x]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad F3 literal '1/2'" in captured.err


def test_envelope_unknown_x_prints_nothing(capsys):
    assert main(["envelope", "--poset", "p1", "--deg", "1,1", "--x", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown element 'nosuch'\n"


def test_cleanmap_linearity_f2(capsys):
    code = main(
        ["cleanmap", "--poset", "p1", "--check-linearity", "--box", "2", "--field", "F2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "linearity x>y1: pass" in out


def test_cleanmap_default_runs_both(capsys):
    assert main(["cleanmap", "--poset", "p1", "--box", "1", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "clean x>y1: pass" in out and "linearity x>y1: pass" in out


def test_cleanmap_tau_roundtrip(capsys):
    code = main(
        ["cleanmap", "--poset", "p1", "--tau-roundtrip", "--box", "2", "--depth", "3"]
    )
    assert code == 0
    assert "tau roundtrip at x: pass" in capsys.readouterr().out


def test_complex_oracle(capsys):
    code = main(["complex", "--poset", "hollow_triangle", "--a", "0,0,0", "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "match: true" in out
    assert "H^-2 = 1" in out


def test_complex_oracle_rejects_non_complex(capsys):
    assert main(["complex", "--poset", "p1", "--a", "0,0", "--oracle"]) == 2


def test_complex_dd(capsys):
    code = main(
        ["complex", "--poset", "p1", "--dd", "--box", "2", "--depth", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dd-zero: pass" in out
    assert "differentials clean: pass" in out


def test_complex_dd_certificate_records_the_clean_sweep(monkeypatch, tmp_path, capsys):
    """The differentials_clean entry is a report of its depth, of the
    monomials the clean sweeps checked, and of the first failing cover."""
    path = tmp_path / "dd.json"
    argv = ["complex", "--poset", "p1", "--dd", "--box", "1", "--depth", "1",
            "--clean-depth", "2", "--json", str(path)]
    assert main(argv) == 0
    ring = PolyRing(bundled_poset("p1"), QQ)
    covers = ring.poset.covers
    sizes = [clean_sweep_size(Envelope.of(ring, u), 2) for u, _ in covers]
    clean = json.loads(path.read_text())["differentials_clean"]
    assert clean == {"property": "differentials clean", "box": {"depth": 2},
                     "status": "pass", "checked": sum(sizes)}
    assert sum(sizes) > 0
    capsys.readouterr()

    swept = []

    def failing_second(m, depth_bound):
        swept.append(m)
        rep = check_clean(m, depth_bound)
        if len(swept) == 2:
            return CertReport(rep.name, rep.bounds, False, checked=1, witness={"input": "w"})
        return rep

    monkeypatch.setattr(cli, "check_clean", failing_second)
    assert main(argv) == 3
    assert "differentials clean: fail (depth <= 2)" in capsys.readouterr().out
    assert len(swept) == 2
    clean = json.loads(path.read_text())["differentials_clean"]
    assert clean["status"] == "fail"
    assert clean["checked"] == sizes[0] + 1
    assert clean["witness"] == {"cover": list(covers[1]), "input": "w"}


def test_json_certificate_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["complex", "--poset", "hollow_triangle", "--a", "1,0,0", "--oracle"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cert = json.loads(out1.read_text())
    assert cert["match"] is True
    assert cert["dims"]["-2"] == 1


def test_clean_sweep_box_does_not_warn(capsys):
    # the clean sweep walks degree-zero monomials by depth; --box is unused
    code = main(
        ["cleanmap", "--poset", "tetrahedron_boundary", "--check-clean",
         "--box", "40", "--depth", "3"]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_dd_sweep_within_bounds_does_not_warn(capsys):
    code = main(
        ["complex", "--poset", "tetrahedron_boundary", "--dd",
         "--box", "3", "--depth", "4"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "dd-zero: pass" in captured.out
    assert captured.err == ""


def test_dd_warning_states_exact_size(monkeypatch, capsys):
    # the threshold is lowered so that a quick sweep crosses it
    ring = PolyRing(bundled_poset("tetrahedron_boundary"))
    size = dd_sweep_size(ring, 1)
    argv = ["complex", "--poset", "tetrahedron_boundary", "--dd", "--box", "1", "--depth", "1"]
    monkeypatch.setattr(cli, "_WARN_SIZE", size - 1)
    assert main(argv) == 0
    assert f"the dd sweep expands {size} monomials" in capsys.readouterr().err
    monkeypatch.setattr(cli, "_WARN_SIZE", size)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _linearity_probes(ring, laurent_bound, depth_bound):
    """Monomials the linearity sweeps of every cover probe when they pass."""
    return sum(
        sum(active_linearity_counts(Envelope.of(ring, u), l, laurent_bound, depth_bound))
        for u, l in ring.poset.covers
    )


def test_cleanmap_warning_states_exact_size(capsys):
    # the linearity sweep of a cover walks its active box and, per passive
    # inverse coordinate, the active box with that coordinate at one
    ring = PolyRing(bundled_poset("tetrahedron_boundary"))
    size = _linearity_probes(ring, 20_000, 3)
    assert size > 5_000_000
    _warn_if_cleanmap_long(ring, False, True, None, 20_000, 3)
    assert f"the cleanmap sweeps expand {size} monomials" in capsys.readouterr().err
    _warn_if_cleanmap_long(ring, True, True, "123", 2, 3)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags",
    [[], ["--check-clean"], ["--check-linearity"], ["--tau-roundtrip"],
     ["--check-clean", "--tau-roundtrip"]],
)
def test_cleanmap_warning_counts_the_sweeps(monkeypatch, tmp_path, capsys, flags):
    # with the threshold at zero the warning always prints: its count is the
    # number of monomials the clean reports say were checked, the monomials
    # the linearity sweeps probe, and the box the roundtrip materialises at x
    monkeypatch.setattr(cli, "_WARN_SIZE", 0)
    out = tmp_path / "c.json"
    argv = ["cleanmap", "--poset", "double_triangle", "--box", "1", "--depth", "3"]
    assert main(argv + flags + ["--json", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    want = sum(r["checked"] for r in reports if r["property"] == "clean")
    ring = PolyRing(bundled_poset("double_triangle"))
    if any(r["property"] == "graded linearity" for r in reports):
        want += _linearity_probes(ring, 1, 3)
    if "--tau-roundtrip" in flags:
        want += len(list(Envelope.of(ring, "12").monomial_box(1, 3)))
    err = capsys.readouterr().err
    assert f"the cleanmap sweeps expand {want} monomials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cleanmap", "--poset", "p1", "--check-linearity", "--box", "-1"],
        ["cleanmap", "--poset", "p1", "--check-clean", "--depth", "-2"],
        ["complex", "--poset", "p1", "--dd", "--box", "1", "--depth", "-1"],
        ["complex", "--poset", "tetrahedron_boundary", "--dd", "--box", "-1",
         "--depth", "1"],
        ["complex", "--poset", "p1", "--dd", "--clean-depth", "-1"],
        ["envelope", "--poset", "p1", "--deg", "1,0", "--depth", "-1"],
    ],
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be non-negative" in captured.err


def test_roundtrip_element_checked_before_output(capsys):
    for x in ("nope", "y1"):
        code = main(
            ["cleanmap", "--poset", "p1", "--tau-roundtrip", "--x", x,
             "--box", "1", "--depth", "1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "of rank at least 2" in captured.err


def test_roundtrip_without_rank_two_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "two_points.json"
    path.write_text(
        '{"elements": ["0", "a", "b"], "covers": [["a", "0"], ["b", "0"]]}',
        encoding="utf-8",
    )
    argv = ["cleanmap", "--poset", str(path), "--tau-roundtrip"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no element of rank at least 2" in captured.err


@pytest.mark.parametrize("x", ("nope", "x"))
def test_x_without_roundtrip_is_a_usage_error(capsys, x):
    # --x only names the roundtrip element, known or not
    argv = ["cleanmap", "--poset", "p1", "--x", x, "--box", "1", "--depth", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs --tau-roundtrip" in captured.err


@pytest.mark.parametrize(
    "poset, x, depth", [("p1", None, 1), ("solid_triangle", "123", 2)]
)
def test_roundtrip_depth_below_rank_is_a_usage_error(capsys, poset, x, depth):
    # the perturbation acts through t[x]^-1, whose depth is rank(x), so a
    # shallower box cannot show that it is not clean
    at = ["--x", x] if x else []
    argv = ["cleanmap", "--poset", poset, "--tau-roundtrip", *at, "--box", "1"]
    code = main([*argv, "--depth", str(depth)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs --depth {depth + 1} or more" in captured.err
    assert main([*argv, "--depth", str(depth + 1)]) == 0
    assert "tau roundtrip at" in capsys.readouterr().out


def test_cleanmap_cert_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["cleanmap", "--poset", "p1", "--check-clean", "--depth", "3"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_envelope_cert_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["envelope", "--poset", "double_triangle", "--deg", "1,1,0", "--depth", "2"]
    assert main(args + ["--json", str(out1)]) == 0
    assert main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_field_option_threads_through(capsys):
    assert main(["ring", "--poset", "p1", "--field", "F3", "--straighten", "t[y1]*t[y2]"]) == 0
    assert main(["ring", "--poset", "p1", "--field", "F4"]) == 2


@pytest.mark.parametrize("field", ["Fp", "QQ", "F03"])
def test_field_has_one_name_per_field(capsys, field):
    # a prime field is named F<p> and the rationals Q; no alias
    assert main(["ring", "--poset", "p1", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown field {field!r}" in captured.err


def _option_prefix_argvs(parser):
    """A command line per strict prefix, three or more characters long, of
    each long option of the parser and of each subcommand, that names no
    option itself.  The rest of the line is complete, so only the prefix can
    make parsing fail."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = [([], parser, ["validate", "p1"])]
    for name, command in sub.choices.items():
        required = [
            arg for a in command._actions if a.required for arg in [*a.option_strings[:1], "1"]
        ]
        commands.append(([name], command, required))
    for head, command, tail in commands:
        options = {s for a in command._actions for s in a.option_strings}
        for action in command._actions:
            value = [] if action.nargs == 0 else ["1"]
            for option in action.option_strings:
                for end in range(3, len(option) if option.startswith("--") else 0):
                    if option[:end] not in options:
                        yield [*head, option[:end], *value, *tail]


def test_option_prefixes_are_usage_errors(capsys):
    # argparse would read --dep as --depth and --tau as --tau-roundtrip; an
    # option is named in full or not at all
    parser = cli.build_parser()
    argvs = list(_option_prefix_argvs(parser))
    assert ["envelope", "--dep", "1", "--poset", "1", "--deg", "1"] in argvs
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("command", ["ring", "envelope", "cleanmap", "complex"])
def test_prime_option_is_gone(capsys, command):
    # --field F5 names the field a prime option once selected
    deg = ["--deg", "0,0"] if command == "envelope" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--poset", "p1", *deg, "--prime", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ring"],
        ["envelope", "--deg", "1,0,0", "--depth", "1"],
        ["cleanmap", "--box", "1", "--depth", "1"],
        ["complex", "--dd", "--box", "1", "--depth", "1"],
    ],
)
def test_invalid_poset_fails_before_output(tmp_path, capsys, argv):
    # a rank-2 element covering three atoms: its lower interval is not boolean
    path = tmp_path / "three_atoms.json"
    path.write_text(
        '{"elements": ["0", "a", "b", "c", "x"], "covers": [["a", "0"], ["b", "0"],'
        ' ["c", "0"], ["x", "a"], ["x", "b"], ["x", "c"]]}',
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    expected = capsys.readouterr().out
    assert main(argv[:1] + ["--poset", str(path)] + argv[1:]) == 1
    out = capsys.readouterr().out
    assert out == expected
    assert out.startswith("violation boolean lower interval: x\n")


def test_prime_above_bound_is_usage_error(capsys):
    argv = ["ring", "--poset", "p1", "--field", f"F{2**89 - 1}"]
    assert main(argv) == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["complex", "--dd", "--box", "1", "--depth", "1"],
        ["cleanmap", "--box", "1", "--depth", "2"],
        ["cleanmap", "--box", "1", "--depth", "3", "--tau-roundtrip"],
    ],
)
def test_each_envelope_built_once(monkeypatch, capsys, argv):
    built = []
    init = Envelope.__init__

    def counting_init(self, ring, x):
        built.append(x)
        init(self, ring, x)

    monkeypatch.setattr(Envelope, "__init__", counting_init)
    assert main(argv + ["--poset", "tetrahedron_boundary"]) == 0
    assert sorted(built) == sorted(bundled_poset("tetrahedron_boundary").elements)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "p1"],
        ["ring", "--poset", "p1"],
        ["envelope", "--poset", "p1", "--deg", "1,0"],
        ["cleanmap", "--poset", "p1", "--box", "1", "--depth", "2"],
        ["complex", "--poset", "p1", "--dd", "--box", "1", "--depth", "1"],
    ],
)
@pytest.mark.parametrize("where", ("missing directory", "directory"))
def test_bad_json_path_fails_before_output(tmp_path, capsys, argv, where):
    # the certificate path is checked before any work, so nothing is printed
    # and nothing is created
    path = tmp_path / "missing" / "c.json" if where == "missing directory" else tmp_path
    assert main(argv + ["--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --json ")
    assert list(tmp_path.iterdir()) == []


def test_json_path_without_directory_is_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "p1", "--json", "c.json"]) == 0
    assert json.loads((tmp_path / "c.json").read_text())
