"""Command line behaviour: report content, determinism, and exit codes."""
from __future__ import annotations

import json
import os
import re

import pytest

from topann.cli import _NAME_SEPARATOR, load_instance, main, monomial_from_obj, parse_monomial_text
from topann.errors import GuardExceededError, InvalidInputError
from topann.monomial import Monomial, radical

SW_INSTANCE = {
    "vars": ["x", "y", "z1", "z2"],
    "J": [
        {"x": 1, "y": 1, "z1": 1},
        {"x": 1, "y": 1, "z2": 1},
    ],
    "a": [{"x": 1}, {"y": 1}],
}


@pytest.fixture
def sw_file(tmp_path):
    path = tmp_path / "sw.json"
    path.write_text(json.dumps(SW_INSTANCE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cd_command(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "cd", sw_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == "cd"
    assert doc["c"] == 2
    assert doc["field"] == "Q"
    assert {"prime": ["z1", "z2"], "cd": 2} in doc["per_prime"]


def test_ann_bounds_command(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "ann-bounds", sw_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["exactness_reason"] == "all-witnesses-found"
    assert doc["lower"] == [{"z1": 1}, {"z2": 1}]
    assert doc["upper"] == [{"z1": 1}, {"z2": 1}]
    assert doc["heights"]["upper"] == 0 and doc["heights"]["annihilator"] == 0
    assert all(c["holds"] for c in doc["heights"]["checks"])


def test_gamma_command(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "gamma", sw_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion_is_zero"] is True
    assert doc["dim_modulo_torsion"] == 3


def test_lynch_fixture_singh_walther(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "lynch", "fixture", "singh-walther")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == 2
    assert doc["annihilator"] == [{"z1": 1}, {"z2": 1}]
    assert doc["dim_modulo_torsion"] == 3
    assert doc["dim_modulo_annihilator"] == 2
    assert doc["gap"] == 1
    assert doc["violated"] is True
    assert doc["all_claims_pass"] is True
    assert [c["pass"] for c in doc["claims"]] == [True] * 6


@pytest.mark.parametrize("flags", [["--d", "9", "--l", "3"], ["--d", "4"], ["--l", "4"]])
def test_lynch_fixture_singh_walther_refuses_parameters(capsys, flags):
    code, out, err = run_cli(capsys, "--quiet", "lynch", "fixture", "singh-walther", *flags)
    assert code == 2 and out == ""
    assert "singh-walther takes no --d or --l" in err


def test_lynch_fixture_bahmanpour(capsys):
    code, out, _ = run_cli(
        capsys, "--quiet", "lynch", "fixture", "bahmanpour", "--d", "7", "--l", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_modulo_torsion"] == 5
    assert doc["dim_modulo_annihilator"] == 4
    assert doc["violated"] is True


def test_lynch_verify_flags(capsys):
    code, out, _ = run_cli(
        capsys, "--quiet", "lynch", "verify",
        "--d", "4", "--X", "1", "--Y", "2", "--Z", "3,4", "--Xp", "1", "--Yp", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["Z"] == ["u3", "u4"]
    assert doc["gap"] == 1


def test_lynch_search(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "lynch", "search", "--max-d", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 3
    assert doc["all_claims_pass"] is True
    assert doc["violations"] == 1


def test_failing_checklist_exits_1(capsys, monkeypatch):
    import dataclasses

    import topann.cli as cli
    from topann.lynch import ClaimCheck

    real_verify = cli.verify_instance

    def broken_verify(inst, field):
        rep = real_verify(inst, field)
        sabotaged = (ClaimCheck("i", expected=1, computed=2),) + rep.checklist[1:]
        return dataclasses.replace(rep, checklist=sabotaged)

    monkeypatch.setattr(cli, "verify_instance", broken_verify)
    code = main(["--quiet", "lynch", "fixture", "singh-walther"])
    capsys.readouterr()
    assert code == 1


def test_lynch_search_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "--quiet", "lynch", "search", "--max-d", "9")
    assert code == 3
    assert "max_d = 9 exceeds the guard 8" in err


def test_oracle_ranks(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "oracle", "ranks", sw_file, "--box=-2:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["top_nonvanishing"] == 2
    assert doc["box"] == {"lower": [-2] * 4, "upper": [1] * 4}
    assert all(any(s["ranks"]) for s in doc["nonzero_slices"])


def test_oracle_ann(sw_file, capsys):
    code, out, _ = run_cli(
        capsys, "--quiet", "oracle", "ann", sw_file, "--monomial", "z1", "--i", "2",
        "--box=-3:1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "annihilates-in-box"
    code, out, _ = run_cli(
        capsys, "--quiet", "oracle", "ann", sw_file, "--monomial", "x", "--i", "2",
        "--box=-3:1",
    )
    assert json.loads(out)["verdict"] == "acts-nonzero"


def test_unit_sum_instance_rejected(tmp_path, capsys):
    bad = dict(SW_INSTANCE)
    bad["a"] = [{}]  # the identity monomial makes a + J the unit ideal
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "--quiet", "cd", str(path))
    assert code == 2
    assert "proper" in err


def test_undeclared_variable_rejected(tmp_path, capsys):
    bad = dict(SW_INSTANCE)
    bad["a"] = [{"w": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "--quiet", "cd", str(path))
    assert code == 2
    assert "undeclared" in err


def test_non_squarefree_relations_rejected(tmp_path, capsys):
    bad = dict(SW_INSTANCE)
    bad["J"] = [{"x": 2}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "--quiet", "cd", str(path))
    assert code == 2
    assert "squarefree" in err


@pytest.mark.parametrize(
    "patch",
    [
        {"J": {"x": 1}},                      # not an array
        {"a": ["x"]},                         # monomial is not an object
        {"vars": ["x", "x"]},                 # duplicate names
        {"vars": ["x", 2]},                   # non-string name
        {"box": {"lower": [0, 0]}},           # missing upper
        {"box": {"lower": [0] * 4, "upper": ["a"] * 4}},
        {"box": {"lower": 1, "upper": 2}},    # bounds are not arrays
        {"box": {"lower": [0] * 3, "upper": [1] * 3}},      # one bound short of vars
        {"field": 5},                         # not a string
        {"field": "Fp:0"},                    # characteristic 0 is not prime
        {"a": [{"x": True}]},                 # bool exponent
        {"a": [{"x": 1.5}]},                  # float exponent
        {"a": [{"x": -1}]},                   # negative exponent
        {"box": {"lower": [-1.7] * 4, "upper": [1] * 4}},   # float bound
        {"box": {"lower": ["-1"] * 4, "upper": [1] * 4}},   # numeric string bound
        # --monomial text on a valid instance: exponents must be ASCII digits
        {"--monomial": "x^-1*x^2"},           # negative exponent
        {"--monomial": "x^\u0662"},           # Arabic-Indic digit two
        {"--monomial": "x^ 2"},               # space after the caret
        {"--monomial": "x^1_0"},              # digit group separator
        # a name the --monomial syntax splits could never be named alone
        {"vars": ["x*y", "x", "y", "z1", "z2"], "--monomial": "x*y"},
        {"vars": ["x", "y", "z1", "z2", "w^2"]},
        {"vars": ["x", "y", "z1", "z2", "w 2"]},
        {"vars": ["x", "y", "z1", "z2", "w\t2"]},
        # nor one the syntax reads as the identity, each with a ring that loads
        # otherwise: --monomial 1 would act by the identity
        {"vars": ["1", "y", "z1", "z2"], "J": [{"1": 1, "y": 1, "z1": 1}],
         "a": [{"1": 1}, {"y": 1}], "--monomial": "1"},
        {"vars": ["", "y", "z1", "z2"], "J": [{"": 1, "y": 1, "z1": 1}],
         "a": [{"": 1}, {"y": 1}]},
    ],
)
def test_malformed_instances_exit_2(tmp_path, capsys, patch):
    bad = dict(SW_INSTANCE)
    bad.update(patch)
    monomial = bad.pop("--monomial", None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    if monomial is not None:
        argv = ["--quiet", "oracle", "ann", str(path), "--monomial", monomial, "--i", "2"]
    elif "box" in patch:
        argv = ["--quiet", "oracle", "ranks", str(path)]
    else:
        argv = ["--quiet", "cd", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid input" in err


LYNCH_VERIFY = ["lynch", "verify", "--X", "1", "--Y", "2", "--Z", "3,4", "--Xp", "1", "--Yp", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        # int() takes '_' separators, a '+' and non-ASCII digits; none is an integer here
        ["--field", "Fp:1_009", "cd", None],
        ["--field", "Fp:+7", "cd", None],
        ["--field", "Fp:\u0663", "cd", None],                 # Arabic-Indic three
        [*LYNCH_VERIFY, "--d", "\u0664"],                      # Arabic-Indic four
        [*LYNCH_VERIFY[:3], "\u0661", *LYNCH_VERIFY[4:], "--d", "4"],   # --X one
        ["lynch", "fixture", "bahmanpour", "--d", "7", "--l", "\uff17"],  # fullwidth seven
        ["oracle", "ranks", None, "--box=-\u0661:1"],
        ["lynch", "search", "--max-d", "1_0"],
    ],
)
def test_malformed_integers_exit_2(sw_file, capsys, argv):
    argv = [sw_file if a is None else a for a in argv]
    try:
        code = main(["--quiet", *argv])
    except SystemExit as exc:  # argparse refuses a flag's value
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("content, argv, message", [
    ([], ["cd", None], "instance file must be a JSON object"),
    (None, ["cd", None], "cannot read instance file"),
    (SW_INSTANCE, ["oracle", "ranks", None, "--box=1"], "cannot parse box '1'"),
    (SW_INSTANCE, ["--field", "R", "cd", None], "cannot parse field spec 'R'"),
    (None, ["lynch", "search", "--max-d", "9" * 5000], "invalid natural value"),
], ids=["array-file", "missing-file", "box-without-colon", "unknown-field",
        "max-d-of-5000-digits"])
def test_refusals_exit_2_with_their_message(tmp_path, capsys, content, argv, message):
    # the file is written only when there is content, so None names a missing file
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_text(json.dumps(content))
    argv = [str(path) if a is None else a for a in argv]
    try:
        code = main(["--quiet", *argv])
    except SystemExit as exc:  # argparse refuses a flag's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_integers_may_still_be_signed_or_spaced_where_legal(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--quiet", "oracle", "ann", sw_file, "--monomial", "z1",
                           "--i", "-1", "--box=-1:0")
    assert code == 0 and json.loads(out)["index"] == -1
    argv = [*LYNCH_VERIFY, "--d", "4"]
    argv[argv.index("3,4")] = " 3 , 4 "
    code, out, _ = run_cli(capsys, "--quiet", *argv)
    assert code == 0 and json.loads(out)["params"]["Z"] == ["u3", "u4"]


@pytest.mark.parametrize(
    "spec, code",
    [
        ("Fp:1000000000000000003", 0),        # a prime near 10^18, found at once
        ("Fp:0", 2),                          # characteristic 0 is Q, not a prime field
        ("Fp:00", 2),
        ("Fp:3215031751", 2),                 # strong pseudoprime to bases 2, 3, 5, 7
        ("Fp:318665857834031151167461", 2),   # strong pseudoprime to bases 2 .. 37
        (f"Fp:{2 ** 89 - 1}", 2),             # a prime, but above the certified cap
    ],
)
def test_large_field_characteristics(sw_file, capsys, spec, code):
    assert run_cli(capsys, "--field", spec, "--quiet", "cd", sw_file)[0] == code


def test_field_override_and_report_labels(sw_file, capsys):
    code, out, _ = run_cli(capsys, "--field", "fp:101", "--quiet", "cd", sw_file)
    assert code == 0
    assert json.loads(out)["field"] == "Fp:101"


def test_reports_are_byte_identical(sw_file, capsys):
    _, out1, _ = run_cli(capsys, "--quiet", "ann-bounds", sw_file)
    _, out2, _ = run_cli(capsys, "--quiet", "ann-bounds", sw_file)
    assert out1 == out2


def test_report_round_trip(sw_file, capsys):
    from topann.annihilator import annihilator_bounds
    from topann.cli import load_instance, monomial_from_obj
    from topann.linalg import FieldSpec
    from topann.monomial import minimalize

    _, out, _ = run_cli(capsys, "--quiet", "ann-bounds", sw_file)
    doc = json.loads(out)
    assert json.loads(json.dumps(doc, sort_keys=True, indent=2)) == doc
    # the serialized ideals reconstruct the library values exactly
    inst = load_instance(sw_file, None, None)
    rep = annihilator_bounds(inst.acting, FieldSpec.rationals())
    index = {name: i for i, name in enumerate(inst.names)}
    lower = minimalize(
        [monomial_from_obj(o, index) for o in doc["lower"]], inst.ring.ambient
    )
    assert lower == rep.lower
    assert doc["delta"] == [["z1", "z2"]]


def test_oracle_reports_are_byte_identical(sw_file, capsys):
    _, out1, _ = run_cli(capsys, "--quiet", "oracle", "ranks", sw_file, "--box=-2:1")
    _, out2, _ = run_cli(capsys, "--quiet", "oracle", "ranks", sw_file, "--box=-2:1")
    assert out1 == out2


def test_oracle_guard_exit_code(sw_file, capsys):
    code, _, err = run_cli(
        capsys, "--quiet", "oracle", "ranks", sw_file, "--guard", "1"
    )
    assert code == 3
    assert "on 2 generators exceeds guard 1" in err


def test_summary_and_quiet_modes(sw_file, capsys):
    code, out, _ = run_cli(capsys, "cd", sw_file)
    assert code == 0
    assert "cd = 2" in out  # human summary present after the JSON
    json.loads(out[: out.rindex("}") + 1])
    code, out, _ = run_cli(capsys, "--pretty", "cd", sw_file)
    assert "{" not in out and "cd = 2" in out


def test_quiet_and_pretty_exclude_each_other(sw_file, capsys):
    # together they would leave no report at all, only a newline
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "--pretty", "cd", sw_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


def test_parse_monomial_text():
    names = ["x", "y", "z1"]
    assert parse_monomial_text("x*y^2", names).exponents == (1, 2, 0)
    assert parse_monomial_text("1", names).is_identity()
    assert parse_monomial_text("z1", names).exponents == (0, 0, 1)
    with pytest.raises(InvalidInputError):
        parse_monomial_text("w", names)


def _fresh_process(*argv, script=None, **run_options):
    """Run topann (or a script) in a new interpreter; (exit code, stdout, stderr).

    `run_options` go to `subprocess.run`.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import topann

    env = dict(os.environ, PYTHONPATH=str(Path(topann.__file__).resolve().parents[1]))
    cmd = [sys.executable, script] if script else [sys.executable, "-m", "topann"]
    done = subprocess.run(cmd + list(argv), capture_output=True, text=True, env=env,
                          **run_options)
    return done.returncode, done.stdout, done.stderr


_TIMED_MAIN = """
import sys, time
from topann.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _write_wide(tmp_path):
    # 200,000 variables and 1,000 sparse relations
    names = [f"v{k}" for k in range(200_000)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "vars": names,
        "J": [{names[k]: 1, names[k + 1]: 1} for k in range(0, 2_000, 2)],
        "a": [{names[0]: 1}],
    }))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["lynch", "fixture", "bahmanpour", "--d", str(10 ** 12), "--l", str(10 ** 12)],
    ["lynch", "verify", "--d", str(10 ** 12), "--X", "1", "--Y", "2", "--Z", "3,4",
     "--Xp", "1", "--Yp", "2"],
    ["cd", "WIDE"],
])
def test_a_huge_ambient_exits_3_before_building_anything(tmp_path, argv):
    # a fresh interpreter held to 1 GiB and 60 s, so that a regression fails
    # instead of exhausting the machine; it prints the time `main` took
    argv = [_write_wide(tmp_path) if a == "WIDE" else a for a in argv]
    script = tmp_path / "timed_main.py"
    script.write_text(_TIMED_MAIN)
    code, out, err = _fresh_process(
        "--quiet", *argv, script=str(script), timeout=60, preexec_fn=_limit_memory
    )
    assert code == 3, err
    assert "exceeds the guard 20" in err
    assert float(out) < 1.0


def test_lynch_verify_tests_the_ambient_guard_before_the_indices(capsys):
    # an index past d is invalid input, unless d is itself past the guard
    code, _, err = run_cli(capsys, *LYNCH_VERIFY[:3], "30", *LYNCH_VERIFY[4:], "--d", "25")
    assert code == 3 and "exceeds the guard 20" in err
    code, _, err = run_cli(capsys, *LYNCH_VERIFY[:3], "0", *LYNCH_VERIFY[4:], "--d", "4")
    assert code == 2 and "variable index 0 out of range 1..4" in err


def test_main_reuses_its_parser_across_calls(sw_file, capsys):
    from topann.cli import build_parser

    runs = [
        ("--quiet", "cd", sw_file),
        ("--field", "Fp:2", "--pretty", "ann-bounds", sw_file),
        ("gamma", sw_file),
        ("--field", "Fp:3", "--quiet", "oracle", "ranks", sw_file, "--box=-1:0"),
        ("--pretty", "oracle", "ann", sw_file, "--monomial", "x", "--i", "2", "--box=-2:1"),
        ("--quiet", "oracle", "ranks", sw_file, "--guard", "1"),
        ("--quiet", "cd", sw_file),
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == _fresh_process(*argv)[:2], argv
    assert build_parser() is build_parser()


def _write_d6(tmp_path):
    # R = K[u1..u6]/(u1) and a = (u2, .., u6): u1 acts as zero and H^5 lives
    # in the 100^5 degrees with u1-degree 0 and the rest negative
    names = [f"u{k}" for k in range(1, 7)]
    path = tmp_path / "d6.json"
    path.write_text(json.dumps({
        "vars": names, "J": [{"u1": 1}], "a": [{n: 1} for n in names[1:]],
    }))
    return str(path)


def test_oracle_ann_on_a_huge_box_counts_in_closed_form(tmp_path, capsys):
    import time

    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "--quiet", "oracle", "ann", _write_d6(tmp_path), "--monomial", "u1",
        "--i", "5", "--box=-100:100",
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "annihilates-in-box"
    assert doc["degrees_checked"] == 200 * 201 ** 5
    assert doc["coverage_gaps"] == 201 ** 5
    assert elapsed < 5.0  # 3^6 interval tuples for 201^6 box degrees


def test_oracle_ranks_on_a_huge_box_exits_3(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "--quiet", "oracle", "ranks", _write_d6(tmp_path), "--box=-100:100"
    )
    assert code == 3 and out == ""
    assert "Cech sweep: 10000000000 nonzero degrees exceed the guard 200000" in err


@pytest.mark.parametrize(
    "instance, box_flag, code",
    [
        ("d6", ["--box=-100000000000000000000:1"], 3),
        ("d6", [], 3),                    # the file's own box, -10^30 .. 10^30
        ("point", ["--box=-100000000000000000000:1"], 0),   # the summary counts the box
    ],
)
def test_oracle_ranks_on_a_box_wider_than_an_index_never_raises(tmp_path, capsys,
                                                                 instance, box_flag, code):
    if instance == "d6":
        path = _write_d6(tmp_path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["box"] = {"lower": [-10 ** 30] * 6, "upper": [10 ** 30] * 6}
    else:  # R = k[x]/(x) = k, whose only cohomology sits at degree 0
        path = str(tmp_path / "point.json")
        doc = {"vars": ["x"], "J": [{"x": 1}], "a": [{"x": 1}]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    got, out, err = run_cli(capsys, "oracle", "ranks", path, *box_flag)
    assert got == code
    if code == 3:
        assert "nonzero degrees exceed the guard" in err
    else:
        assert "nonzero slices: 1 of 100000000000000000002 degrees" in out


def test_name_separator_matches_the_characters_split_on():
    # the loader's pattern refuses a name exactly when it holds '*', '^', '·'
    # or a character of `str.isspace`, checked on every code point
    for c in map(chr, range(0x110000)):
        assert bool(_NAME_SEPARATOR.search(c)) == (c in "*^·" or c.isspace()), hex(ord(c))


def _seeded_instance(rng) -> dict:
    """An instance file whose J lists duplicates and redundant non-squarefree
    multiples, whose a lists duplicates and generators over others, and which
    writes some zero exponents out."""
    d = rng.randint(2, 9)
    names = [f"v{i}" for i in range(1, d + 1)]

    def obj(exps):
        return {n: e for n, e in zip(names, exps) if e or rng.random() < 0.2}

    J = []
    for _ in range(rng.randint(0, 5)):
        support = rng.sample(range(d), rng.randint(1, d))
        exps = [int(i in support) for i in range(d)]
        J += [obj(exps)] * rng.randint(1, 2)
        J.append(obj([e * rng.randint(1, 3) or rng.randint(0, 1) for e in exps]))
    a = []
    for _ in range(rng.randint(1, 5)):
        exps = [rng.choice((0, 0, 1, 2, 3)) for _ in range(d)]
        if not any(exps):
            exps[rng.randrange(d)] = 1
        a += [obj(exps)] * rng.randint(1, 2)
        a.append(obj([e + rng.randint(0, 1) for e in exps]))
    rng.shuffle(J)
    rng.shuffle(a)
    return {"vars": names, "J": J, "a": a}


def _checked_mask(m: Monomial) -> int:
    return sum(1 << i for i, e in enumerate(m.exponents) if e)


def test_loader_carries_masks_that_its_exponents_give(tmp_path):
    # the loader's monomials, the kept generators of J and a, their squarefree
    # parts and the generators of radical(a) each store the mask their
    # exponents give, and the ideals equal the checked constructions
    import glob
    import random

    import _oracles as orc

    rng = random.Random(277)
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden", "instances",
                                          "*.json")))
    for k in range(150):
        path = tmp_path / f"seeded{k}.json"
        path.write_text(json.dumps(_seeded_instance(rng)))
        paths.append(str(path))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        inst = load_instance(path, None, None)
        names, d = inst.names, len(inst.names)
        index = {n: i for i, n in enumerate(names)}
        lift = inst.acting.lift
        for ideal, objs in ((inst.ring.relations, raw.get("J", [])), (lift, raw["a"])):
            checked = [Monomial(tuple(o.get(n, 0) for n in names)) for o in objs]
            assert [monomial_from_obj(o, index) for o in objs] == checked
            assert ideal.gens == orc.brute_minimalize(checked), path
            parts = [g.squarefree_part() for g in ideal.gens]
            assert parts == [Monomial(tuple(min(e, 1) for e in g.exponents)) for g in ideal.gens]
            for g in (*(monomial_from_obj(o, index) for o in objs), *ideal.gens, *parts):
                assert vars(g)["mask"] == _checked_mask(g), (path, g)
        parts = [Monomial(tuple(min(e, 1) for e in g.exponents)) for g in lift.gens]
        assert radical(lift).gens == orc.brute_minimalize(parts), path
        for g in radical(lift).gens:
            assert vars(g)["mask"] == _checked_mask(g), (path, g)
        if d <= 12:
            edges = [g.support() for g in inst.ring.relations.gens]
            assert list(inst.ring.minimal_primes) == orc.brute_minimal_covers(edges, d), path


@pytest.mark.parametrize("prefix", ["", '{"vars": ["x"], "J": '])
def test_deeply_nested_instance_exits_2(tmp_path, capsys, prefix):
    path = tmp_path / "deep.json"
    path.write_text(prefix + "[" * 200_000)
    code, out, err = run_cli(capsys, "--quiet", "cd", str(path))
    assert code == 2 and out == ""
    assert "nested too deeply" in err


def test_profile_cmd_passes_output_and_exit_code_through(sw_file, capsys):
    from pathlib import Path

    script = str(Path(__file__).resolve().parents[1] / "scripts" / "profile_cmd.py")
    for argv in [("--quiet", "oracle", "ranks", sw_file, "--box=-2:1"),
                 ("--quiet", "oracle", "ranks", sw_file, "--guard", "1")]:
        code, out, err = _fresh_process("--top", "5", "--", *argv, script=script)
        assert (code, out) == run_cli(capsys, *argv)[:2]
        assert "tottime" in err


def test_profile_cmd_repeat_passes_only_the_first_run_through(sw_file, capsys):
    from pathlib import Path

    script = str(Path(__file__).resolve().parents[1] / "scripts" / "profile_cmd.py")
    argv = ("--quiet", "gamma", sw_file)
    code, out, err = _fresh_process("--top", "1000", "--repeat", "3", "--", *argv,
                                    script=script)
    assert (code, out) == run_cli(capsys, *argv)[:2]
    assert re.search(r"^ +3 .*\(load_instance\)$", err, re.M)
    code, out, err = _fresh_process("--repeat", "0", "--", *argv, script=script)
    assert code == 2 and out == ""
    assert "--repeat must be at least 1" in err


@pytest.mark.parametrize("top", ["٥", "+3", "1_0", "-2"])
def test_profile_cmd_reads_top_by_the_integer_rule(top):
    from pathlib import Path

    script = str(Path(__file__).resolve().parents[1] / "scripts" / "profile_cmd.py")
    code, out, err = _fresh_process(f"--top={top}", "--", "--quiet", "cd", _README,
                                    script=script)
    assert code == 2 and out == ""
    assert "invalid natural value" in err


_README = os.path.join(os.path.dirname(__file__), "golden", "instances", "readme.json")
_LONG = "1" * 4301  # one digit past CPython's default int-string limit


@pytest.mark.parametrize("content", [
    b'{"vars": ["\xff"], "J": [], "a": []}',                      # not UTF-8
    ('{"vars": ["x"], "J": [], "a": [{"x": %s}]}' % _LONG).encode(),       # exponent
    ('{"vars": ["x"], "J": [], "a": [{"x": 1}], "box": {"lower": [-%s], "upper": [1]}}'
     % _LONG).encode(),                                              # box bound
], ids=["non-utf8", "long-exponent", "long-box-bound"])
@pytest.mark.parametrize("command", [["cd"], ["gamma"], ["oracle", "ranks"]],
                         ids=["cd", "gamma", "oracle-ranks"])
def test_unreadable_instance_files_exit_2(tmp_path, capsys, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "--quiet", *command, str(path))
    assert code == 2 and out == ""
    assert "not valid UTF-8 JSON" in err


def _write_readme_box(tmp_path, lo, hi):
    with open(_README, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["box"] = {"lower": [lo] * 4, "upper": [hi] * 4}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("form", ["file", "flag"])
@pytest.mark.parametrize("mode", ["--quiet", "--pretty"])
def test_a_box_volume_past_the_printable_limit_exits_3(tmp_path, capsys, form, mode):
    # four widths of about 2 * 10^4000 make a volume of about 10^16000
    bound = 10 ** 4000 - 1
    if form == "file":
        argv = [_write_readme_box(tmp_path, -bound, bound)]
    else:
        argv = [_README, f"--box=-{bound}:{bound}"]
    code, out, err = run_cli(capsys, mode, "oracle", "ann", *argv, "--monomial", "z1",
                             "--i", "2")
    assert code == 3 and out == ""
    assert "box volume has more than 4300 decimal digits" in err


def test_a_box_volume_just_under_the_limit_writes_counts_that_read_back(tmp_path, capsys):
    # widths of 10^1074 + 1 make a volume of 4297 digits
    path = _write_readme_box(tmp_path, -(10 ** 1074), 0)
    code, out, _ = run_cli(capsys, "--quiet", "oracle", "ann", path, "--monomial", "z1",
                           "--i", "2")
    assert code == 0
    doc = json.loads(out)
    width = 10 ** 1074 + 1
    assert doc["degrees_checked"] + doc["coverage_gaps"] == width ** 4


@pytest.mark.parametrize("mode, code", [("--pretty", 0), ("--quiet", 3), (None, 3)])
def test_pretty_lists_no_degrees_so_skips_their_guard(capsys, mode, code):
    argv = [mode] if mode else []
    got, out, err = run_cli(capsys, *argv, "oracle", "ranks", _README, "--box=-60:60")
    assert got == code
    if code == 0:
        assert out == ("top nonvanishing index in box: 2 over Q\n"
                       "nonzero slices: 453720 of 214358881 degrees\n")
    else:
        assert out == ""
        assert "453720 nonzero degrees exceed the guard" in err


def test_nonzero_degree_guard_has_one_home(monkeypatch, capsys):
    # the guard on listed degrees sits in the listing that both nonzero() and
    # the report writer read; --pretty lists nothing, so it never trips it
    from topann import cech

    inst = load_instance(_README, None, "-12:12")
    ranks = cech.cech_ranks(inst.acting, inst.box, inst.field).ranks
    n = ranks.nonzero_count()
    message = f"Cech sweep: {n} nonzero degrees exceed the guard {n - 1}"
    monkeypatch.setattr(cech, "CECH_SWEEP_GUARD", n - 1)
    with pytest.raises(GuardExceededError, match=message):
        ranks.nonzero()
    for mode in (["--quiet"], []):
        code, out, err = run_cli(capsys, *mode, "oracle", "ranks", _README, "--box=-12:12")
        assert (code, out, err) == (3, "", f"error (guard): {message}\n")
    code, out, _ = run_cli(capsys, "--pretty", "oracle", "ranks", _README, "--box=-12:12")
    assert code == 0 and f"nonzero slices: {n} of 390625 degrees" in out
    monkeypatch.setattr(cech, "CECH_SWEEP_GUARD", n)
    assert len(ranks.nonzero()) == n


def test_search_table_rows_are_read_from_the_json_reports(capsys):
    code, table, _ = run_cli(capsys, "--pretty", "lynch", "search", "--max-d", "6")
    assert code == 0
    code, out, _ = run_cli(capsys, "--quiet", "lynch", "search", "--max-d", "6")
    assert code == 0
    reports = json.loads(out)["reports"]
    lines = table.splitlines()
    assert lines[0].split() == ["d", "|X|", "|Y|", "|Z|", "|Xp|", "|Yp|", "c", "dim", "R/G",
                                "dim", "R/ann", "gap", "violated", "claims"]
    assert lines[1] == "-" * len(lines[0])
    rows = lines[2:-3]
    assert len(rows) == len(reports) == 20
    for row, rep in zip(rows, reports):
        params = rep["params"]
        assert row.split() == [
            str(params["d"]), *(str(len(params[k])) for k in ("X", "Y", "Z", "Xp", "Yp")),
            str(rep["c"]), str(rep["dim_modulo_torsion"]), str(rep["dim_modulo_annihilator"]),
            str(rep["gap"]), str(rep["violated"]), "all", "ok",
        ]
    assert sum(row.split()[10] == "True" for row in rows) == 12
    assert lines[-1].startswith("conjecture violated on 12 instances")


def test_quiet_builds_no_summary(sw_file, capsys, monkeypatch):
    from topann.monomial import Monomial, MonomialIdeal

    def refuse(*args):
        raise AssertionError("a summary was built")

    monkeypatch.setattr(Monomial, "pretty", refuse)
    monkeypatch.setattr(MonomialIdeal, "pretty", refuse)
    for argv in (["ann-bounds", sw_file], ["gamma", sw_file],
                 ["lynch", "fixture", "singh-walther"]):
        code, out, _ = run_cli(capsys, "--quiet", *argv)
        assert code == 0
        json.loads(out)
        with pytest.raises(AssertionError, match="a summary was built"):
            main(argv)
        capsys.readouterr()


def test_pretty_ann_bounds_computes_no_heights(capsys, monkeypatch):
    import topann.cli as cli

    code, summary, _ = run_cli(capsys, "--pretty", "ann-bounds", _README)
    assert code == 0 and summary.startswith("c = ")

    def refuse(*args):
        raise AssertionError("heights were computed")

    monkeypatch.setattr(cli, "height_report", refuse)
    assert run_cli(capsys, "--pretty", "ann-bounds", _README) == (0, summary, "")
    with pytest.raises(AssertionError, match="heights were computed"):
        main(["--quiet", "ann-bounds", _README])
    capsys.readouterr()


@pytest.mark.parametrize("mode", [None, "--pretty", "--quiet"])
def test_variable_names_that_are_not_utf8_text_exit_2(tmp_path, capsys, mode):
    path = tmp_path / "surrogate.json"
    # json.dumps escapes the lone surrogate as \ud800, which json.load reads back
    path.write_text(json.dumps({"vars": ["x\ud800", "y"], "J": [{"x\ud800": 1, "y": 1}],
                                "a": [{"x\ud800": 1}]}))
    code, out, err = run_cli(capsys, *([mode] if mode else []), "cd", str(path))
    assert code == 2 and out == ""
    assert "is not UTF-8 text" in err


def test_a_generator_subset_table_past_the_sweep_guard_exits_3(tmp_path):
    # 30 generators pass --guard 30, but their 2^30 subset unions would not
    # fit in the 1 GiB this process is held to
    from itertools import combinations, islice

    names = [f"u{k}" for k in range(1, 21)]
    path = tmp_path / "wide_a.json"
    path.write_text(json.dumps({
        "vars": names,
        "J": [{n: 1 for n in names}],
        "a": [{names[k]: 1 for k in c} for c in islice(combinations(range(20), 10), 30)],
    }))
    code, out, err = _fresh_process("--quiet", "oracle", "ranks", str(path), "--guard", "30",
                                    "--box=0:0", timeout=60, preexec_fn=_limit_memory)
    assert code == 3 and out == ""
    assert "1073741824 generator subsets exceed the guard 200000" in err

