"""End-to-end CLI runs over the bundled golden files."""

import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import gen
from lam.cli import main
from lam.dataio import parse_dataset, parse_report, parse_scalar, serialize_dataset
from lam import LamParams, lam_table, luce_table, Universe

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identify_lab_golden(capsys):
    code, out, _ = run(
        capsys,
        "identify-lab",
        "--ai", str(DATA / "lab_ai.csv"),
        "--human", str(DATA / "lab_human.csv"),
        "--anchor", "x",
        "--exact",
    )
    assert code == 0
    assert "status,point-identified" in out
    assert "alpha,1/2" in out
    assert "u,y,2/3" in out
    assert "v,y,2" in out
    assert "v,z,3" in out
    assert "autonomous,x;z,z,3/4" in out


def test_identify_lab_partial_exit_code(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "identify-lab",
        "--ai", str(DATA / "lab_human.csv"),
        "--human", str(DATA / "lab_human.csv"),
        "--anchor", "x",
        "--exact",
    )
    assert code == 2
    assert "status,partially-identified" in out
    assert "u,y,2/3" in out


def test_identify_field_golden(capsys):
    code, out, _ = run(
        capsys,
        "identify-field",
        "--ai", str(DATA / "field_ai.csv"),
        "--anchor", "x",
        "--exact",
    )
    assert code == 0
    assert "status,identified-up-to-swap" in out
    assert "alpha_pair,3/4;1/4" in out
    assert "u,t,5" in out
    assert "v,t,1/5" in out
    assert "candidates,t" in out and "denominator-vanishing" in out


def test_identify_field_degenerate_iia(capsys, tmp_path):
    uni = Universe(("x", "y", "z", "t"))
    rho = luce_table(uni, {"x": 1, "y": 2, "z": 3, "t": 4}, uni.all_menus(2))
    path = tmp_path / "luce.csv"
    path.write_text(serialize_dataset(rho))
    code, out, _ = run(capsys, "identify-field", "--ai", str(path), "--anchor", "x", "--exact")
    assert code == 2
    assert "status,degenerate-iia" in out


ALIGNED_EXACT = """\
report,identify-field
mode,exact
tolerance,0
status,identified-up-to-swap
candidates,b,c;d,admissible,
candidates,b,c;d,rejected,1/2:denominator-vanishing
candidates,c,b;d,admissible,2;64299/29773;5/2
candidates,d,b;c,admissible,4/9;21795359/47868645;10/21
alpha_table,b,1/2;1/2,any,feasible
alpha_table,c,2;64299/29773,247/23765;23518/23765,feasible
alpha_table,c,2;5/2,7/20;13/20,feasible
alpha_table,c,64299/29773;5/2,-133/23385;23518/23385,infeasible
alpha_table,d,4/9;21795359/47868645,-262197/34569805;34832002/34569805,infeasible
alpha_table,d,4/9;10/21,7/20;13/20,feasible
alpha_table,d,21795359/47868645;10/21,141183/34973185;34832002/34973185,feasible
alpha_pair,13/20;7/20
alpha,13/20
anchor,a
u,a,1
u,b,1/2
u,c,2
u,d,4/9
v,a,1
v,b,1/2
v,c,5/2
v,d,10/21
class,swap-equivalent member is (v,u,1-alpha)
"""

# the float report with its numbers rounded to 9 places
ALIGNED_FLOAT = """\
report,identify-field
mode,float
tolerance,1e-06
status,identified-up-to-swap
candidates,b,c;d,admissible,0.5
candidates,b,c;d,case2,constant-odds
candidates,c,b;d,admissible,2;2.15964129;2.5
candidates,d,b;c,admissible,0.444444444;0.45531598;0.476190476
alpha_table,b,0.5;0.5,any,feasible
alpha_table,c,2;2.15964129,0.0103934357;0.989606564,feasible
alpha_table,c,2;2.5,0.35;0.65,feasible
alpha_table,c,2.15964129;2.5,-0.00568740646;1.00568741,infeasible
alpha_table,d,0.444444444;0.45531598,-0.00758456694;1.00758457,infeasible
alpha_table,d,0.444444444;0.476190476,0.35;0.65,feasible
alpha_table,d,0.45531598;0.476190476,0.00403689284;0.995963107,feasible
alpha_pair,0.65;0.35
alpha,0.65
anchor,a
u,a,1
u,b,0.5
u,c,2
u,d,0.444444444
v,a,1
v,b,0.5
v,c,2.5
v,d,0.476190476
class,swap-equivalent member is (v,u,1-alpha)
"""


@pytest.mark.parametrize(
    "flags, expected",
    [(["--exact"], ALIGNED_EXACT), (["--tol", "1e-6"], ALIGNED_FLOAT)],
    ids=["exact-constant-odds", "float-case2"],
)
def test_identify_field_aligned_target_report(capsys, tmp_path, flags, expected):
    # b is aligned (u = v = 1/2): in exact mode every cubic root for b sits on
    # a pole, so b falls back to its constant odds; at tol 1e-6 its cubic
    # vanishes (case 2).  Either way b is one candidate, assigned to u and v.
    uni = Universe(("a", "b", "c", "d"))
    u = {"a": 1, "b": F(1, 2), "c": 2, "d": F(4, 9)}
    v = {"a": 1, "b": F(1, 2), "c": F(5, 2), "d": F(10, 21)}
    rho = lam_table(LamParams(uni, u, v, F(13, 20), "a"), uni.all_menus(2))
    path = tmp_path / "aligned.csv"
    path.write_text(serialize_dataset(rho))
    code, out, _ = run(capsys, "identify-field", "--ai", str(path), "--anchor", "a", *flags)
    assert code == 0
    rounded = re.sub(r"-?\d+\.\d+", lambda m: f"{float(m.group()):.9g}", out)
    assert (out if "--exact" in flags else rounded) == expected


def test_check_axioms_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        "check-axioms",
        "--ai", str(DATA / "lab_ai.csv"),
        "--human", str(DATA / "lab_human.csv"),
        "--exact",
    )
    assert code == 0
    assert "overall,pass" in out

    code, out, _ = run(
        capsys,
        "check-axioms",
        "--ai", str(DATA / "lab_ai.csv"),
        "--human", str(DATA / "lab_ai.csv"),
        "--exact",
    )
    assert code == 2
    assert "axiom,h_iia,fail" in out
    assert "witness,h_iia" in out


def test_identify_lab_violations_only_off_shared_menus_exit_code(capsys, tmp_path):
    head = "mode,probabilities\nuniverse,x;y;z\nmenu,alternative,value\n"
    rest = "x;z,x,1/2\nx;z,z,1/2\ny;z,y,1/2\ny;z,z,1/2\n"
    (tmp_path / "human.csv").write_text(head + "x;y,x,1/2\nx;y,y,1/2\n" + rest)
    (tmp_path / "ai.csv").write_text(
        head + "x;y,x,2/3\nx;y,y,1/3\nx;y;z,x,1/3\nx;y;z,y,1/3\nx;y;z,z,1/3\n" + rest
    )
    pair = ["--ai", str(tmp_path / "ai.csv"), "--human", str(tmp_path / "human.csv")]
    for flags in ([], ["--exact"]):
        code, out, err = run(capsys, "identify-lab", *pair, "--anchor", "x", *flags)
        assert (code, err) == (2, "")
        assert "status,partially-identified" in out
        assert "shared menus ({x,y} {x,z} {y,z})" in out


def test_identify_lab_loose_tol_reports_a_clamped_peel(capsys, tmp_path):
    # three-decimal AI frequencies at --tol 0.01: the peel clamps an entry
    # within tol of 0, and the clamped row is reported, not raised
    head = "mode,probabilities\nuniverse,a;b;c\nmenu,alternative,value\n"
    (tmp_path / "ai.csv").write_text(head + (
        "a;b,a,0.232\na;b,b,0.768\na;b;c,a,0.138\na;b;c,b,0.316\na;b;c,c,0.546\n"
        "a;c,a,0.265\na;c,c,0.735\nb;c,b,0.402\nb;c,c,0.598\n"
    ))
    (tmp_path / "human.csv").write_text(head + (
        "a;b,a,9/25\na;b,b,16/25\na;b;c,a,9/35\na;b;c,b,16/35\na;b;c,c,10/35\n"
        "a;c,a,9/19\na;c,c,10/19\nb;c,b,16/26\nb;c,c,10/26\n"
    ))
    code, out, err = run(
        capsys, "identify-lab", "--ai", str(tmp_path / "ai.csv"),
        "--human", str(tmp_path / "human.csv"), "--anchor", "a", "--tol", "0.01",
    )
    assert (code, err) == (2, "")
    assert "status,inconsistent" in out
    assert "reason,autonomous component is not a Luce rule: row for menu ('a', 'b', 'c') sums to" in out


def test_identify_field_exact_with_an_anchor_never_chosen(capsys, tmp_path):
    # rho(x, {x,y}) = 0 leaves no binary odds: the exact run reports, as
    # the float run of the same file does, instead of dividing by 0
    text = (DATA / "field_ai.csv").read_text()
    text = text.replace("x;y,x,7/18\n", "x;y,x,0\n").replace("x;y,y,11/18\n", "x;y,y,1\n")
    (tmp_path / "ai.csv").write_text(text)
    for flags in ([], ["--exact"]):
        code, out, err = run(capsys, "identify-field", "--ai", str(tmp_path / "ai.csv"),
                             "--anchor", "x", *flags)
        assert (code, err) == (2, "")
        assert "status,non-generic-failure" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["identify-lab", "--ai", str(DATA / "lab_ai.csv"), "--human", str(DATA / "lab_human.csv"),
         "--anchor", "x"],
        ["identify-field", "--ai", str(DATA / "field_ai.csv"), "--anchor", "x"],
        ["check-axioms", "--ai", str(DATA / "lab_ai.csv"), "--human", str(DATA / "lab_human.csv")],
    ],
    ids=["identify-lab", "identify-field", "check-axioms"],
)
def test_invalid_tolerance_is_an_input_error(capsys, argv, tol):
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err == f"error: tolerance {float(tol)!r} must be finite and non-negative\n"


def test_simulate_then_fit(capsys, tmp_path):
    out_path = tmp_path / "sim.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--params", str(DATA / "field_params.csv"),
        "--menus", "all",
        "--n", "500",
        "--seed", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert "total,5500" in out
    data = parse_dataset(out_path.read_text())
    assert data.total() == 5500

    code, out, _ = run(
        capsys,
        "fit",
        "--data", str(out_path),
        "--starts", "2",
        "--seed", "1",
        "--max-iter", "200",
    )
    assert code == 0
    assert "report,fit" in out
    assert "monotone,yes" in out
    assert "alpha," in out
    rows = out.splitlines()
    converged = next(i for i, row in enumerate(rows) if row.startswith("converged,"))
    assert float(rows[converged + 1].removeprefix("grad_max,")) >= 0


def test_negative_seed_is_an_input_error(capsys, tmp_path):
    sim = tmp_path / "sim.csv"
    simulate = ["simulate", "--params", str(DATA / "field_params.csv"), "--menus", "all",
                "--n", "50", "--out", str(sim)]
    code, out, err = run(capsys, *simulate, "--seed", "-2")
    assert (code, out, err) == (1, "", "error: seed must be a non-negative integer, got -2\n")
    assert not sim.exists()

    assert run(capsys, *simulate, "--seed", "2")[0] == 0
    code, out, err = run(capsys, "fit", "--data", str(sim), "--starts", "2", "--seed", "-2")
    assert (code, out, err) == (1, "", "error: seed must be a non-negative integer, got -2\n")


def test_simulate_deterministic_bytes(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    outs = []
    for p in paths:
        code, out, _ = run(
            capsys,
            "simulate",
            "--params", str(DATA / "field_params.csv"),
            "--menus", "x;y,x;y;z",
            "--n", "100",
            "--seed", "11",
            "--out", str(p),
        )
        assert code == 0
        outs.append(out.replace(str(p), "OUT"))
    assert outs[0] == outs[1]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_determinism(capsys):
    argv = [
        "identify-field",
        "--ai", str(DATA / "field_ai.csv"),
        "--anchor", "x",
        "--exact",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_deception_gap_pipeline(capsys, tmp_path):
    _, lab_out, _ = run(
        capsys,
        "identify-lab",
        "--ai", str(DATA / "lab_ai.csv"),
        "--human", str(DATA / "lab_human.csv"),
        "--anchor", "x",
        "--exact",
    )
    _, field_out, _ = run(
        capsys,
        "identify-field",
        "--ai", str(DATA / "field_ai.csv"),
        "--anchor", "x",
        "--exact",
    )
    lab_path = tmp_path / "lab.txt"
    field_path = tmp_path / "field.txt"
    lab_path.write_text(lab_out)
    field_path.write_text(field_out)
    code, out, _ = run(
        capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path)
    )
    assert code == 0
    # lab alpha 1/2 against field pair {3/4, 1/4}
    assert "gap,1/4" in out


def test_deception_gap_past_the_int_digit_limit(capsys):
    # hand-written exact reports: the lab alpha has a 5,000-digit numerator,
    # past the interpreter's default limit on int-string conversion, and the
    # field pair is that alpha plus and minus 1/4 about 1/2
    lab, field = DATA / "gap_lab_5000_digits.txt", DATA / "gap_field_5000_digits.txt"
    alpha = F(10**4999 + 1, 2 * 10**4999)
    code, out, err = run(capsys, "deception-gap", "--lab", str(lab), "--field", str(field))
    assert (code, err) == (0, "")
    rows = dict(line.split(",", 1) for line in out.splitlines())
    assert rows["lab_alpha"] == dict(parse_report(lab.read_text()))["alpha"]
    assert [parse_scalar(t, True) for t in rows["field_alpha_pair"].split(";")] == [
        alpha + F(1, 4), F(3, 4) - alpha]
    assert rows["gap"] == "1/4"


#: 10**5000 in digits, past the interpreter's 4,300-digit limit on int-string conversion
BIG = "1" + "0" * 5000
#: (2 * 10**5000 + 1) / (2 * 10**5000), a compliance just above 1
BIG_ALPHA = f"2{BIG[1:-1]}1/2{BIG[1:]}"


def test_probability_past_the_int_digit_limit_is_named_in_the_error(capsys, tmp_path):
    # x;y reads -1/10**5000 and (10**5000 + 1)/10**5000: the message names
    # the negative entry by its leading digits
    ai = tmp_path / "ai.csv"
    ai.write_text((DATA / "lab_ai.csv").read_text()
                  .replace("x;y,x,7/15", f"x;y,x,-1/{BIG}").replace("x;y,y,8/15", f"x;y,y,{BIG[:-1]}1/{BIG}"))
    code, out, err = run(capsys, "check-axioms", "--ai", str(ai), "--human", str(DATA / "lab_human.csv"),
                         "--exact")
    assert (code, out, err) == (1, "", "error: probability ~-1E-5000 for 'x' in menu ('x', 'y') outside [0, 1]\n")


def test_compliance_past_the_int_digit_limit_in_params_is_named_in_the_error(capsys, tmp_path):
    params = tmp_path / "params.csv"
    params.write_text((DATA / "field_params.csv").read_text().replace("alpha,3/4", f"alpha,{BIG_ALPHA}"))
    code, out, err = run(capsys, "simulate", "--params", str(params), "--menus", "all", "--n", "10",
                         "--seed", "1", "--out", str(tmp_path / "sim.csv"))
    assert (code, out, err) == (1, "", "error: alpha = ~1.0000000000000000 outside [0, 1]\n")
    assert not (tmp_path / "sim.csv").exists()


def test_lab_compliance_past_the_int_digit_limit_is_named_in_the_error(capsys, tmp_path):
    lab, field = tmp_path / "lab.txt", tmp_path / "field.txt"
    lab.write_text(f"report,identify-lab\nmode,exact\nstatus,point-identified\nalpha,{BIG_ALPHA}\n")
    field.write_text("report,identify-field\nmode,exact\nstatus,identified-up-to-swap\n"
                     "alpha_pair,3/4;1/4\n")
    code, out, err = run(capsys, "deception-gap", "--lab", str(lab), "--field", str(field))
    assert (code, out, err) == (1, "", "error: lab compliance ~1.0000000000000000 outside [0, 1]\n")


def test_deception_gap_undefined_for_degenerate_field(capsys, tmp_path):
    lab_path = tmp_path / "lab.txt"
    lab_path.write_text("report,identify-lab\nstatus,point-identified\nalpha,1/2\n")
    field_path = tmp_path / "field.txt"
    field_path.write_text("report,identify-field\nstatus,degenerate-iia\n")
    code, out, _ = run(
        capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path)
    )
    assert code == 2
    assert "gap undefined" in out


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(
        capsys, "identify-field", "--ai", "/nonexistent.csv", "--anchor", "x"
    )
    assert code == 1
    assert "error" in err


def test_float_mode_identify_lab(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "identify-lab",
        "--ai", str(DATA / "lab_ai.csv"),
        "--human", str(DATA / "lab_human.csv"),
        "--anchor", "x",
    )
    assert code == 0
    assert "mode,float" in out
    assert "status,point-identified" in out


# Full reports over the lab example, exact and float, and with the human's
# x;y;z row moved so that IIA fails: by 2e-4 in floats, and exactly.
LAB_EXACT = """report,identify-lab
mode,exact
tolerance,0
status,point-identified
alpha,1/2
alpha_raw,1/2
alpha_strategy,least-squares
r_squared,1
tuples_used,2
anchor,x
u,x,1
u,y,2/3
u,z,1/3
v,x,1
v,y,2
v,z,3
autonomous,x;y,x,1/3
autonomous,x;y,y,2/3
autonomous,x;y;z,x,1/6
autonomous,x;y;z,y,1/3
autonomous,x;y;z,z,1/2
autonomous,x;z,x,1/4
autonomous,x;z,z,3/4
autonomous,y;z,y,2/5
autonomous,y;z,z,3/5
"""

LAB_FLOAT = """report,identify-lab
mode,float
tolerance,1e-09
status,point-identified
alpha,0.49999999999999983
alpha_raw,0.49999999999999983
alpha_strategy,least-squares
r_squared,1.0
tuples_used,2
anchor,x
u,x,1.0
u,y,0.6666666666666666
u,z,0.3333333333333332
v,x,1.0
v,y,1.9999999999999987
v,z,2.999999999999998
autonomous,x;y,x,0.3333333333333334
autonomous,x;y,y,0.6666666666666664
autonomous,x;y;z,x,0.1666666666666667
autonomous,x;y;z,y,0.33333333333333326
autonomous,x;y;z,z,0.4999999999999998
autonomous,x;z,x,0.2500000000000001
autonomous,x;z,z,0.7499999999999998
autonomous,y;z,y,0.4000000000000001
autonomous,y;z,z,0.5999999999999999
"""

LAB_PERTURBED = """report,identify-lab
mode,{mode}
tolerance,{tol}
status,inconsistent
reason,human data is not a Luce rule: IIA violated at tolerance {tol} for 12 tuples, e.g. (x,y,{{x,y}},{{x,y,z}})
"""

AXIOMS_PASS = """report,check-axioms
mode,{mode}
tolerance,{tol}
axiom,positivity,pass
axiom,h_iia,pass
axiom,proportionality,pass
axiom,bounded_instability,pass
axiom,bounded_divergence,pass
overall,pass
"""

AXIOMS_PERTURBED = """report,check-axioms
mode,{mode}
tolerance,{tol}
axiom,positivity,pass
axiom,h_iia,fail
witness,h_iia,human data violates IIA at (x,y,{{x,y}},{{x,y,z}})
axiom,proportionality,fail
witness,proportionality,instability ratios differ between (x,z,{{x,y,z}},{{x,z}}) and (x,y,{{x,y}},{{x,y,z}})
axiom,bounded_instability,pass
axiom,bounded_divergence,pass
overall,fail
"""


@pytest.mark.parametrize(
    "human, flags, lab_report, lab_code, axioms_report, axioms_code",
    [
        ("lab_human.csv", ["--exact"], LAB_EXACT, 0,
         AXIOMS_PASS.format(mode="exact", tol="0"), 0),
        ("lab_human.csv", [], LAB_FLOAT, 0,
         AXIOMS_PASS.format(mode="float", tol="1e-09"), 0),
        ("lab_human_perturbed.csv", [], LAB_PERTURBED.format(mode="float", tol="1e-09"), 2,
         AXIOMS_PERTURBED.format(mode="float", tol="1e-09"), 2),
        ("lab_human_perturbed_exact.csv", ["--exact"], LAB_PERTURBED.format(mode="exact", tol="0"), 2,
         AXIOMS_PERTURBED.format(mode="exact", tol="0"), 2),
    ],
)
def test_lab_reports_golden(capsys, human, flags, lab_report, lab_code, axioms_report, axioms_code):
    pair = ["--ai", str(DATA / "lab_ai.csv"), "--human", str(DATA / human)]
    code, out, _ = run(capsys, "identify-lab", *pair, "--anchor", "x", *flags)
    assert (code, out) == (lab_code, lab_report)
    code, out, _ = run(capsys, "check-axioms", *pair, *flags)
    assert (code, out) == (axioms_code, axioms_report)


def test_deception_gap_malformed_reports_are_input_errors(capsys, tmp_path):
    field_path = tmp_path / "field.txt"
    field_path.write_text(
        "report,identify-field\nmode,exact\nstatus,identified-up-to-swap\nalpha_pair,3/4;1/4\n"
    )
    lab_path = tmp_path / "lab.txt"
    lab_path.write_text("report,identify-lab\nmode,float\nstatus,point-identified\nalpha,abc\n")
    code, out, err = run(
        capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "'abc'" in err

    lab_path.write_text("report,identify-lab\nmode,exact\nstatus,point-identified\nalpha,1/2\n")
    field_path.write_text("report,identify-field\nmode,exact\nstatus,identified-up-to-swap\n")
    code, out, err = run(
        capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path)
    )
    assert (code, out) == (1, "")
    assert err == "error: field report has no alpha_pair row\n"


def test_non_finite_probability_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(
        "mode,probabilities\nuniverse,x;y;z\nmenu,alternative,value\n"
        "x;y,x,0.5\nx;y,y,0.5\nx;y;z,x,nan\nx;y;z,y,0.5\nx;y;z,z,0.5\n"
    )
    pair = ["--ai", str(path), "--human", str(DATA / "lab_human.csv")]
    for argv in (["identify-lab", *pair, "--anchor", "x"], ["check-axioms", *pair]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: line 6: probability 'nan' is not finite\n"


def test_lab_utility_past_float_range_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "subnormal.csv"
    path.write_text(
        "mode,probabilities\nuniverse,a;b;c\nmenu,alternative,value\n"
        "a;b,a,5e-324\na;b,b,1.0\nb;c,b,0.5\nb;c,c,0.5\n"
    )
    code, out, err = run(
        capsys, "identify-lab", "--ai", str(path), "--human", str(path), "--anchor", "a",
        "--tol", "0",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: utility of 'b' against the anchor 'a' is exp(")
    assert err.endswith("outside float64's range\n")


def test_fit_on_counts_past_float_range_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "mode,counts\nuniverse,a;b;c\nmenu,alternative,value\n"
        f"a;b,a,{'9' * 400}\na;b,b,1\na;c,a,3\na;c,c,1\nb;c,b,1\nb;c,c,1\n"
    )
    code, out, err = run(capsys, "fit", "--data", str(path), "--starts", "1", "--seed", "1")
    assert (code, out) == (1, "")
    assert err == "error: counts past float64's range have no float view\n"


def test_simulate_rejects_infinite_utility(capsys, tmp_path):
    params = tmp_path / "params.csv"
    params.write_text(
        "universe,x;y;z\nanchor,x\nalpha,0.5\n"
        "u,x,1\nu,y,inf\nu,z,2\nv,x,1\nv,y,2\nv,z,3\n"
    )
    code, out, err = run(
        capsys, "simulate", "--params", str(params), "--menus", "all", "--n", "10",
        "--seed", "1", "--out", str(tmp_path / "sim.csv"),
    )
    assert (code, out) == (1, "")
    assert err == "error: u('y') = inf; utilities must be positive and finite\n"
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_rejects_a_repeated_menu(capsys, tmp_path):
    code, out, err = run(
        capsys, "simulate", "--params", str(DATA / "field_params.csv"), "--menus", "x;y,y;x",
        "--n", "10", "--seed", "1", "--out", str(tmp_path / "sim.csv"),
    )
    assert (code, out) == (1, "")
    assert err == "error: duplicate menu ('x', 'y')\n"
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_menu_tokens_parse_as_dataset_menus(capsys, tmp_path):
    # --menus tokens follow dataset files: an empty member is skipped, a
    # repeated one is an error
    simulate = ["simulate", "--params", str(DATA / "field_params.csv"), "--n", "10",
                "--seed", "1"]
    outs = []
    for menus in ("x;y,x;y;z", "x;;y,;x;y;z;"):
        out_path = tmp_path / f"{len(outs)}.csv"
        code, out, err = run(capsys, *simulate, "--menus", menus, "--out", str(out_path))
        assert (code, err) == (0, "")
        outs.append((out.replace(str(out_path), "OUT"), out_path.read_bytes()))
    assert outs[0] == outs[1]
    code, out, err = run(capsys, *simulate, "--menus", "x;y,x;x;y",
                         "--out", str(tmp_path / "sim.csv"))
    assert (code, out) == (1, "")
    assert err == "error: menu 'x;x;y' repeats an alternative\n"
    assert not (tmp_path / "sim.csv").exists()


def test_identify_field_root_on_a_denominator_zero_exits_cleanly(run_python):
    # a raw root of the float cubics lies on a denominator zero; run as a
    # program, the command reports the class and prints no traceback
    proc = run_python("-m", "lam.cli", "identify-field",
                      "--ai", str(DATA / "field_pole_float.csv"), "--anchor", "x")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "status,identified-up-to-swap" in proc.stdout.splitlines()
    assert "alpha_pair,0.9700000000000001;0.0299999999999999" in proc.stdout.splitlines()


def test_identify_field_subnormal_slope_exits_cleanly(run_python):
    # float cells near the bottom of the subnormal range: run as a program,
    # the command reports a failure and prints no traceback
    proc = run_python("-m", "lam.cli", "identify-field",
                      "--ai", str(DATA / "field_subnormal_float.csv"), "--anchor", "a")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert "status,non-generic-failure" in proc.stdout.splitlines()


def test_unknown_menu_member_message_independent_of_hash_seed(run_python, tmp_path):
    argv = ["simulate", "--params", str(DATA / "field_params.csv"), "--menus", "x;q;r",
            "--n", "10", "--seed", "1", "--out", str(tmp_path / "sim.csv")]
    for seed in (0, 1):  # the frozenset order of {x, q, r} differs between these
        proc = run_python("-m", "lam.cli", *argv, env={"PYTHONHASHSEED": str(seed)})
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: unknown alternative 'q'\n"


@pytest.mark.parametrize("alpha_pair", ["3;-2", "nan;0.25"])
def test_deception_gap_rejects_field_compliance_outside_unit_interval(
    capsys, tmp_path, alpha_pair
):
    lab_path = tmp_path / "lab.txt"
    lab_path.write_text("report,identify-lab\nmode,float\nstatus,point-identified\nalpha,0.5\n")
    field_path = tmp_path / "field.txt"
    field_path.write_text(
        "report,identify-field\nmode,float\nstatus,identified-up-to-swap\n"
        f"alpha_pair,{alpha_pair}\n"
    )
    code, out, err = run(
        capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: field compliance ") and err.endswith(" outside [0, 1]\n")


FLOAT_REPORTS = """
import sys
from lam.cli import main
data = sys.argv[1]
for argv in (
    ["identify-lab", "--ai", f"{data}/lab_ai.csv", "--human", f"{data}/lab_human.csv",
     "--anchor", "x"],
    ["check-axioms", "--ai", f"{data}/lab_ai.csv", "--human", f"{data}/lab_human.csv"],
    ["identify-lab", "--ai", f"{data}/lab_ai.csv", "--human",
     f"{data}/lab_human_perturbed.csv", "--anchor", "x"],
    ["check-axioms", "--ai", f"{data}/lab_ai.csv", "--human",
     f"{data}/lab_human_perturbed.csv"],
    ["identify-field", "--ai", f"{data}/field_ai.csv", "--anchor", "x"],
):
    print("exit", main(argv))
"""


def test_float_reports_independent_of_hash_seed(run_python):
    outputs = set()
    for seed in (0, 1):
        proc = run_python("-c", FLOAT_REPORTS, str(DATA), env={"PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (out,) = outputs
    assert out.count("report,") == 5 and "mode,float" in out


LAB_REPORTS = """
import sys
from lam.cli import main
for ai, human, anchor in zip(*[iter(sys.argv[1:])] * 3):
    print("exit", main(["identify-lab", "--ai", ai, "--human", human, "--anchor", anchor]))
    print("exit", main(["check-axioms", "--ai", ai, "--human", human]))
"""

#: Settings that change which OpenBLAS kernels and numpy SIMD loops run;
#: numpy accepts the AVX-512 targets on any CPU, and skips those it lacks.
CPU_SETTINGS = (
    {},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
)


def test_float_lab_reports_independent_of_cpu(run_python, tmp_path):
    # the float lab reports call no LAPACK routine and no SIMD-dispatched
    # numpy transcendental, and their one BLAS call, the compliance sums'
    # limb product, sums ints below 2**53, which is exact on any kernel: so
    # their bytes do not depend on the kernels the CPU selects.  The n = 8
    # pair on every menu runs that product on 64-menu blocks, and the n = 40
    # linear design the envelope Cholesky on a banded Laplacian.  Not
    # covered yet: fit (numpy's dispatched log and exp in the EM)
    rng = random.Random(6)
    params = gen.random_params(rng, 6)
    menus = [m for m in params.universe.all_menus(2) if rng.random() < 0.5]
    for name, table in (("ai", lam_table(params, menus)),
                        ("human", luce_table(params.universe, params.u, menus))):
        (tmp_path / f"{name}.csv").write_text(serialize_dataset(table.as_float()))
    large = gen.random_params(rng, 8)
    for name, table in zip(("ai8", "human8"), gen.forward_pair(large)):
        (tmp_path / f"{name}.csv").write_text(serialize_dataset(table.as_float()))
    linear, (uni, menus) = gen.random_params(rng, 40), gen.linear_design(40)
    for name, table in (("ai40", lam_table(linear, menus)), ("human40", luce_table(uni, linear.u, menus))):
        (tmp_path / f"{name}.csv").write_text(serialize_dataset(table.as_float()))
    argv = [str(DATA / "lab_ai.csv"), str(DATA / "lab_human.csv"), "x",
            str(DATA / "lab_ai.csv"), str(DATA / "lab_human_perturbed.csv"), "x",
            str(tmp_path / "ai.csv"), str(tmp_path / "human.csv"), params.anchor,
            str(tmp_path / "ai8.csv"), str(tmp_path / "human8.csv"), large.anchor,
            str(tmp_path / "ai40.csv"), str(tmp_path / "human40.csv"), linear.anchor]
    outputs = set()
    for setting in CPU_SETTINGS:
        proc = run_python("-c", LAB_REPORTS, *argv, env=setting)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "float lab reports differ across CPU settings"
    (out,) = outputs
    assert out.count("status,point-identified") == 4 and "mode,float" in out


EXACT_FIELD_REPORTS = """
import sys
from lam.cli import main
for ai, anchor in zip(*[iter(sys.argv[1:])] * 2):
    print("exit", main(["identify-field", "--ai", ai, "--anchor", anchor, "--exact"]))
"""


def test_exact_field_reports_independent_of_cpu(capsys, run_python, tmp_path):
    # exact field roots come from integer root isolation, their irrational
    # stand-ins from int / int division: no LAPACK call and no float
    # arithmetic on the cubics, so the bytes do not depend on the CPU
    argv = [simulated_counts(capsys, tmp_path), "x", str(DATA / "field_fifty_digit_exact.csv"), "a"]
    outputs = set()
    for setting in CPU_SETTINGS:
        proc = run_python("-c", EXACT_FIELD_REPORTS, *argv, env=setting)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "exact field reports differ across CPU settings"
    (out,) = outputs
    assert out.count("mode,exact") == 2 and "irrational (exact mode)" in out


FLOAT_FIELD_REPORTS = """
import sys
from lam.cli import main
for ai, anchor in zip(*[iter(sys.argv[1:])] * 2):
    print("exit", main(["identify-field", "--ai", ai, "--anchor", anchor]))
"""


def test_float_field_reports_independent_of_cpu(capsys, run_python, tmp_path):
    # float field roots are the correctly rounded roots of the exact cubic
    # of the float cells, found by integer root isolation: the bytes do not
    # depend on the CPU.  The simulated counts give irrational roots, and on
    # field_pole_float.csv a root is a denominator zero
    argv = [simulated_counts(capsys, tmp_path), "x", str(DATA / "field_pole_float.csv"), "x"]
    outputs = set()
    for setting in CPU_SETTINGS:
        proc = run_python("-c", FLOAT_FIELD_REPORTS, *argv, env=setting)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "float field reports differ across CPU settings"
    (out,) = outputs
    assert out.count("mode,float") == 2 and "status,identified-up-to-swap" in out
    assert "candidates,y,z;t,admissible,0.8018644616587782;1.44341612648697;1.6765376435782906" in out


def test_shared_parser_matches_fresh_processes(capsys, monkeypatch, run_python, tmp_path):
    # main() reuses one parser per process: a usage error, --help and every
    # subcommand in one process give what a fresh process gives
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal
    lab, field, sim = (str(tmp_path / name) for name in ("lab.txt", "field.txt", "sim.csv"))
    lab_pair = ["--ai", str(DATA / "lab_ai.csv"), "--human", str(DATA / "lab_human.csv")]
    runs = [
        (["identify-lab", "--ai"], None),
        (["--help"], None),
        (["identify-lab", *lab_pair, "--anchor", "x", "--exact"], lab),
        (["identify-field", "--ai", str(DATA / "field_ai.csv"), "--anchor", "x", "--exact"], field),
        (["check-axioms", *lab_pair, "--exact"], None),
        (["simulate", "--params", str(DATA / "field_params.csv"), "--menus", "all",
          "--n", "200", "--seed", "3", "--out", sim], None),
        (["fit", "--data", sim, "--starts", "2", "--seed", "1", "--max-iter", "20"], None),
        (["deception-gap", "--lab", lab, "--field", field], None),
    ]
    codes = []
    for argv, report in runs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        if report is not None:
            Path(report).write_text(out)
        fresh = run_python("-m", "lam.cli", *argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [1, 0, 0, 0, 0, 0, 0, 0]


def simulated_counts(capsys, tmp_path) -> str:
    path = str(tmp_path / "counts.csv")
    code, _, _ = run(capsys, "simulate", "--params", str(DATA / "field_params.csv"),
                     "--menus", "all", "--n", "1000", "--seed", "1", "--out", path)
    assert code == 0
    return path


#: Stands in an argv for the file :func:`simulated_counts` writes.
COUNTS = "<counts>"

#: One row per CLI case: argv, exit code, lines the report must hold, and a
#: pattern one of its lines must match, or None.  Every case prints nothing
#: to stderr.
CLI_CASES = {
    "field-float": (
        ["identify-field", "--ai", str(DATA / "field_ai.csv"), "--anchor", "x"],
        0, ["status,identified-up-to-swap"], None,
    ),
    # noiseless exact data with 50-digit utility terms: the rational roots of
    # b's cubic have 50-digit denominators, found by integer root isolation
    # and the rational root theorem's integer test c3 r in Z
    "field-fifty-digit-exact": (
        ["identify-field", "--ai", str(DATA / "field_fifty_digit_exact.csv"), "--exact",
         "--anchor", "a"],
        0, ["status,identified-up-to-swap"], None,
    ),
    # exact cells past float range: the float coefficients of b's cubic lose
    # its degree, and its roots come from the integer cubic alone
    "field-odds-past-float-exact": (
        ["identify-field", "--ai", str(DATA / "field_odds_past_float_exact.csv"), "--exact",
         "--anchor", "a"],
        2, [], r"^candidates,b,c;d,(admissible,.+|rejected,)",
    ),
    # one tuple whose bounded instability turns on a float tol's rounding:
    # |d| lies above |p| + 0.1 in exact sums, below fl(|p| + 0.1)
    "boundary-exact": (
        ["check-axioms", "--ai", str(DATA / "boundary_ai.csv"),
         "--human", str(DATA / "boundary_human.csv"), "--exact"],
        2, ["axiom,bounded_instability,fail"], None,
    ),
    "boundary-exact-tol": (
        ["check-axioms", "--ai", str(DATA / "boundary_ai.csv"),
         "--human", str(DATA / "boundary_human.csv"), "--exact", "--tol", "0.1"],
        2, ["axiom,bounded_instability,pass"], None,
    ),
    "fit-counts": (
        ["fit", "--data", COUNTS, "--starts", "2", "--seed", "1"],
        0, ["converged,yes", "maximum,yes", "monotone,yes"], None,
    ),
    # the symmetric start alone stops at the aligned saddle
    "fit-counts-one-start": (
        ["fit", "--data", COUNTS, "--starts", "1", "--seed", "1"],
        0, ["converged,yes", "maximum,no", "monotone,yes"], None,
    ),
}


@pytest.mark.parametrize("argv, code, lines, pattern", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_cases(capsys, tmp_path, argv, code, lines, pattern):
    if COUNTS in argv:
        argv = [simulated_counts(capsys, tmp_path) if a == COUNTS else a for a in argv]
    got, out, err = run(capsys, *argv)
    rows = out.splitlines()
    assert (got, err) == (code, "")
    assert [line for line in lines if line not in rows] == []
    assert pattern is None or any(re.match(pattern, row) for row in rows)


def test_exact_flag_reads_counts_as_exact_frequencies(capsys, tmp_path):
    counts = simulated_counts(capsys, tmp_path)
    code, out, _ = run(capsys, "identify-field", "--ai", counts, "--anchor", "x", "--exact")
    # noisy counts do not identify; the rows are count / menu total as Fractions
    assert code == 2
    assert out.splitlines()[1:3] == ["mode,exact", "tolerance,0"]
    assert "input,converted-counts-to-frequencies" in out.splitlines()
    assert "candidates,y,z;t,rejected,0.8018644616587776:irrational (exact mode);" in out
    for argv in (["identify-lab", "--anchor", "x"], ["check-axioms"]):
        code, out, _ = run(capsys, *argv, "--ai", counts, "--human", counts, "--exact")
        assert code == 2 and out.splitlines()[1] == "mode,exact"


def test_float_counts_are_reported_as_converted(capsys, tmp_path):
    counts = simulated_counts(capsys, tmp_path)
    code, out, _ = run(capsys, "identify-field", "--ai", counts, "--anchor", "x")
    assert code == 2
    assert out.splitlines()[1:6] == [
        "mode,float", "tolerance,1e-09", "status,non-generic-failure",
        "input,converted-counts-to-frequencies",
        "candidates,y,z;t,admissible,0.8018644616587782;1.44341612648697;1.6765376435782906",
    ]
    code, out, _ = run(capsys, "identify-lab", "--ai", counts, "--human", counts, "--anchor", "x")
    assert code == 2
    assert out.splitlines()[1:5] == [
        "mode,float", "tolerance,1e-09", "status,inconsistent",
        "input,converted-counts-to-frequencies",
    ]


def test_fit_on_a_probabilities_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "fit", "--data", str(DATA / "lab_ai.csv"), "--starts", "1",
                         "--seed", "1")
    assert (code, out, err) == (1, "", "error: fit needs a counts dataset (mode,counts)\n")


def test_deception_gap_needs_a_point_identified_lab_report(capsys, tmp_path):
    _, lab_out, _ = run(capsys, "identify-lab", "--ai", str(DATA / "lab_human.csv"),
                        "--human", str(DATA / "lab_human.csv"), "--anchor", "x", "--exact")
    lab_path, field_path = tmp_path / "lab.txt", tmp_path / "field.txt"
    lab_path.write_text(lab_out)
    field_path.write_text("report,identify-field\nmode,exact\nstatus,identified-up-to-swap\n"
                          "alpha_pair,3/4;1/4\n")
    code, out, _ = run(capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path))
    assert (code, out) == (
        2, "report,deception-gap\nreason,lab report status is partially-identified; "
        "no compliance estimate\n",
    )


@pytest.mark.parametrize("alpha_pair", ["3/4", "3/4;1/4;0"])
def test_deception_gap_alpha_pair_arity_is_an_input_error(capsys, tmp_path, alpha_pair):
    lab_path, field_path = tmp_path / "lab.txt", tmp_path / "field.txt"
    lab_path.write_text("report,identify-lab\nmode,exact\nstatus,point-identified\nalpha,1/2\n")
    field_path.write_text("report,identify-field\nmode,exact\nstatus,identified-up-to-swap\n"
                          f"alpha_pair,{alpha_pair}\n")
    code, out, err = run(capsys, "deception-gap", "--lab", str(lab_path), "--field", str(field_path))
    assert (code, out, err) == (1, "", "error: field report alpha_pair row needs 2 value(s)\n")


def test_identify_field_reports_an_undefined_compliance_row(capsys, tmp_path):
    # z's one surviving candidate k pairs with itself, and the AI's binary
    # choice between x and z is not 1/(1 + k): no compliance solves it
    uni = Universe(("x", "y", "z", "t"))
    params = LamParams.normalized(
        uni, {"x": 1, "y": 5000, "z": F(1, 100), "t": 1},
        {"x": 1, "y": F(1, 100), "z": F(1, 1000), "t": 1}, F(3, 100)
    )
    path = tmp_path / "ai.csv"
    path.write_text(serialize_dataset(lam_table(params, uni.all_menus(2)).as_float()))
    code, out, _ = run(capsys, "identify-field", "--ai", str(path), "--anchor", "x", "--tol", "0.001")
    assert code == 2
    assert "status,non-generic-failure" in out.splitlines()
    assert "alpha_table,z,0.01;0.01,undefined,infeasible" in out.splitlines()


def _universe(path):
    return parse_dataset(path.read_text()).universe.alternatives


_TABLES = sorted(p for p in DATA.glob("*.csv") if p.name != "field_params.csv")


@pytest.mark.parametrize("ai, human", [
    (a.name, h.name) for a in _TABLES for h in _TABLES if _universe(a) != _universe(h)
])
def test_tables_over_different_universes_are_input_errors(capsys, ai, human):
    # an error line naming both universes, never a traceback
    want = (f"error: the tables are over different universes, {_universe(DATA / ai)!r} "
            f"and {_universe(DATA / human)!r}\n")
    for cmd in (["check-axioms"], ["identify-lab", "--anchor", "x"]):
        code, out, err = run(capsys, cmd[0], "--ai", str(DATA / ai), "--human", str(DATA / human), *cmd[1:])
        assert (code, out, err) == (1, "", want), cmd
