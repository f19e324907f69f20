"""Command-line surface: targets, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from yangian.algebra import Context, GL, SL, Tensor, generator, unit, zero
from yangian import cli
from yangian.cli import EXPAND_TARGETS, _render_verify, main
from yangian.drinfeld import current
from yangian.hopf import delta_series
from yangian.report import Report
from yangian.suites import SUITES, default_order, run_suite
from yangian import render


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# expand


def test_expand_qdet_linear_coefficient(capsys):
    code, doc = run_json(capsys, "expand", "qdet", "--n", "2",
                         "--order", "1")
    assert code == 0
    ctx = Context(2, 1, GL)
    want = render.payload(generator(ctx, 1, 1, 1) + generator(ctx, 2, 2, 1))
    assert doc["series"]["coeffs"]["1"] == want
    assert doc["series"]["constant"] == "1"


def test_expand_full_minor_equals_qdet(capsys):
    _, qdet_doc = run_json(capsys, "expand", "qdet", "--n", "2",
                           "--order", "1")
    _, minor_doc = run_json(capsys, "expand", "minor", "--rows", "1,2",
                            "--cols", "1,2", "--n", "2", "--order", "1")
    assert minor_doc["series"] == qdet_doc["series"]


def test_expand_delta_e_matches_pullback_terms(capsys):
    code, doc = run_json(capsys, "expand", "delta-e", "--n", "2",
                         "--i", "1", "--order", "2")
    assert code == 0
    ctx = Context(2, 2, SL)
    cur = current(ctx, "e", 1)
    assert doc["series"] == render.payload(delta_series(cur))
    # the second coefficient carries exactly the three expected tensors
    e0 = cur.coefficient(1)
    e1 = cur.coefficient(2)
    h0 = current(ctx, "h", 1).coefficient(1)
    want = (Tensor.of_elements(e1, unit(ctx))
            + Tensor.of_elements(unit(ctx), e1)
            + Tensor.of_elements(e0, h0))
    assert doc["series"]["coeffs"]["2"] == render.payload(want)


def test_expand_phi_h_sl_reduction(capsys):
    code, doc = run_json(capsys, "expand", "phi-h", "--n", "2",
                         "--order", "1")
    assert code == 0
    assert doc["series"]["coeffs"]["1"] == [
        {"coeff": "-2", "word": [[1, 1, 1]]}]


def test_expand_antipode_current(capsys):
    code, doc = run_json(capsys, "expand", "s-e", "--n", "2", "--order", "2")
    assert code == 0
    ctx = Context(2, 2, SL)
    neg = current(ctx, "e", 1).coefficient(1) * -1
    assert doc["series"]["coeffs"]["1"] == render.payload(neg)


def test_expand_gauss_factors(capsys):
    code, doc = run_json(capsys, "expand", "gauss", "--n", "2",
                         "--order", "2")
    assert code == 0
    for variant in ("lower-diag-upper", "upper-diag-lower"):
        assert set(doc["factors"][variant]) == {"e", "f", "k"}
        assert set(doc["factors"][variant]["k"]) == {"1", "2"}
    lo = doc["factors"]["lower-diag-upper"]
    assert lo["k"]["1"]["coeffs"]["1"] == [{"coeff": "1", "word": [[1, 1, 1]]}]


def test_expand_text_and_latex_formats(capsys):
    code, out = run_cli(capsys, "expand", "phi-e", "--n", "2", "--order", "1")
    assert code == 0
    assert "u^-1: T[1](1,2)" in out
    code, out = run_cli(capsys, "expand", "phi-e", "--n", "2", "--order", "1",
                        "--format", "latex")
    assert code == 0
    assert "T^{(1)}_{1,2}" in out


def test_expand_json_is_byte_deterministic(capsys):
    args = ("expand", "delta-h", "--n", "2", "--order", "3",
            "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_r_matrix_rank_three(capsys):
    code, doc = run_json(capsys, "verify", "r-matrix", "--n", "3")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["counts"]["fail"] == 0
    assert {r["identity"] for r in doc["reports"]} == {
        "yang-baxter", "unitarity", "transposition-symmetry"}


def test_verify_sl2_default_order(capsys):
    code, doc = run_json(capsys, "verify", "sl2", "--order", "4")
    assert code == 0
    names = {r["identity"]: r for r in doc["reports"]}
    assert names["sl2-closed-delta-e"]["status"] == "pass"
    assert names["sl2-closed-antipode-h"]["status"] == "documented"
    assert names["sl2-mutation-sensitivity"]["status"] == "pass"


def test_verify_antipode_formulas_reports_residual_degrees(capsys):
    code, out = run_cli(capsys, "verify", "antipode-formulas", "--n", "3",
                        "--order", "2")
    assert code == 0
    assert "earliest failing tensor degree: 2" in out
    assert "documented deviation" in out


def test_verify_gauss_and_drinfeld(capsys):
    for suite in ("gauss", "drinfeld"):
        code, doc = run_json(capsys, "verify", suite, "--n", "2",
                             "--order", "3")
        assert code == 0, doc
        assert doc["status"] == "pass"


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    def with_failure(suite, **kwargs):
        ctx = Context(2, 1, GL)
        bad = Report("mutated-identity", n=2)
        bad.check("k=1", generator(ctx, 1, 2, 1), zero(ctx))
        return run_suite(suite, **kwargs) + [bad]

    monkeypatch.setattr(cli, "run_suite", with_failure)
    code, doc = run_json(capsys, "verify", "sl2")
    assert code == 1
    assert doc["status"] == "fail"
    bad = [r for r in doc["reports"] if r["identity"] == "mutated-identity"]
    assert bad and bad[0]["status"] == "fail"
    assert bad[0]["residuals"] == {
        "k=1": [{"coeff": "1", "word": [[1, 2, 1]]}]}


def test_verify_json_is_byte_deterministic(capsys):
    args = ("verify", "hopf-axioms", "--n", "2", "--order", "3",
            "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_verify_seed_changes_random_points_not_status(capsys):
    code1, doc1 = run_json(capsys, "verify", "r-matrix", "--seed", "1")
    code2, doc2 = run_json(capsys, "verify", "r-matrix", "--seed", "2")
    assert code1 == code2 == 0
    assert doc1 != doc2


# sha256 of the `verify all --n N --format json` output at seed 0.  A
# change meant to alter that output updates these and says why.
ALL_JSON_SHA256 = {
    2: "a1789c24919f17fcf8d1aa60f774e25b4f52fbe7ad85feb42a6e8d9eb51edc2b",
    3: "dcfa70f9f80b4cd64e0d68dec96de2854670f833bda3a66493a019aab668269b",
    # n=4 is the smallest rank where formula checks fail and no declared
    # deviation holds
    4: "23d6122e85dc8e0089de2e78f86a4a064aac6098b52ac2d3fcbf07347bf48777",
    # n=5 and n=6 fail the hat composites at further indices
    5: "d8dac2a5aec154d126306a667517094f26615f48af63ad3f13dc626771dcc9e3",
    6: "ad64b0715ce90851c581ea97287103d628e8bbab69e08fc30c315431d975b565",
}


@pytest.mark.parametrize("n", sorted(ALL_JSON_SHA256))
def test_verify_all_json_is_pinned(n):
    # the CLI resolves the default order from --n before running suites
    order = default_order(n)
    args = argparse.Namespace(suite="all", n=n, order=order, seed=0,
                              fmt="json")
    text = _render_verify(args, run_suite("all", n, order, seed=0)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_JSON_SHA256[n]


# sha256 of `verify SUITE --n N --format json` at seed 0, at the ranks
# where the R-matrix and minor kernels cost the most.  A change meant to
# alter that output updates these and says why.
SUITE_JSON_SHA256 = {
    ("r-matrix", 5):
        "782bf32a452a45872e58e7e08c8db7040174f8cf25d50d86475bbf71a742854b",
    ("r-matrix", 6):
        "f7870842306daf7d8f47aa4e22d1e01c17cc8119fcb45d58c9b80e900642e2a6",
    ("minors", 5):
        "b1b8439adecffce29a7cd42dd61391c2b827e9f8fcb9a1475381a522b8f7c431",
}


@pytest.mark.parametrize("suite, n", sorted(SUITE_JSON_SHA256))
def test_verify_suite_json_is_pinned(capsys, suite, n):
    code, out = run_cli(capsys, "verify", suite, "--n", str(n),
                        "--seed", "0", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SUITE_JSON_SHA256[(suite, n)]


# sha256 of `verify minors --n 4 --order 3 --seed 0 --format json`: the
# default order 2 never reaches the u^-2 commutation cases or a bracket
# with a non-scalar c_2.  A change meant to alter that output updates it
# and says why.
MINORS_ORDER_THREE_JSON_SHA256 = (
    "6be5ade40e94adb4e61a9efc1a654adf83ab6462439073e5b7a33b602b8a4eea")


def test_verify_minors_order_three_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "minors", "--n", "4", "--order",
                        "3", "--seed", "0", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == MINORS_ORDER_THREE_JSON_SHA256


# (exit code, sha256) of `verify all --n 4 --order 3 --seed 0 --format
# json`: every suite one order past the n=4 default, where words of
# degree 3 meet the SL elimination of T_44.  A change meant to alter that
# output updates it and says why.
ALL_N4_ORDER_THREE_JSON = (
    1, "ca9bf684ed0811111c1d91da56a45105638c5fa1c927b5a45607d847fb3ccc41")


def test_verify_all_n4_order_three_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "all", "--n", "4", "--order", "3",
                        "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == ALL_N4_ORDER_THREE_JSON


# (exit code, sha256) of `verify SUITE --n 5 --seed 0 --format json` for
# the suites built on brackets and coefficient differences.  At n=5 the
# antipode formulas f3 and h3 fail, so that suite exits 1.  A change
# meant to alter that output updates these and says why.
BRACKET_SUITE_JSON_SHA256 = {
    "antipode-formulas": (1,
        "1a56f61f7c1aaeb09d27475a763a3e0b83cee697b87eb4ef8032179969d9c72b"),
    "drinfeld": (0,
        "fbfbdb7ea5dcc68079184f382764c6c897814748600ace718cf2042c298378da"),
    "coproduct-formulas": (0,
        "070959667f076dbf3c012e08a95b90309152e65a9658320a19e691270dd662bd"),
}


@pytest.mark.parametrize("suite", sorted(BRACKET_SUITE_JSON_SHA256))
def test_verify_bracket_suite_json_is_pinned(capsys, suite):
    code, out = run_cli(capsys, "verify", suite, "--n", "5",
                        "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == BRACKET_SUITE_JSON_SHA256[suite]


# (exit code, sha256) of `verify antipode-formulas --n N --seed 0 --format
# json` at the ranks where the most antipode formulas miss and no
# declared deviation holds (n=4: e2, f2, h2; n=6: e, f, h at 2, 3, 4).
# A change meant to alter that output updates these and says why.
DIAGNOSED_ANTIPODE_JSON_SHA256 = {
    4: (1, "8aa3b41cd5325e4ca8c62916f75009d17be73e17ad0aa539325eb38ac873415a"),
    6: (1, "780454282d8284aedeea63ce85d49111bdea0e73aa1afb7a2935613fb840d9d2"),
}


@pytest.mark.parametrize("n", sorted(DIAGNOSED_ANTIPODE_JSON_SHA256))
def test_verify_diagnosed_antipode_json_is_pinned(capsys, n):
    code, out = run_cli(capsys, "verify", "antipode-formulas", "--n", str(n),
                        "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == DIAGNOSED_ANTIPODE_JSON_SHA256[n]


# (exit code, sha256) of `verify antipode-formulas --n 3 --order 4 --seed 0
# --format json`: rank two above its default order, where the printed
# antipode-formula-h1 misses and no declared deviation holds, so the
# verdict notes end in "no declared repair holds".  A change meant to
# alter that output updates it and says why.
ANTIPODE_N3_ORDER_FOUR_JSON = (
    1, "eeb166db5b848ba86ee7be319d919e0fa0690b5d1c50d26ddf4664c986cfb4d8")


def test_verify_antipode_n3_order_four_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "antipode-formulas", "--n", "3",
                        "--order", "4", "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == ANTIPODE_N3_ORDER_FOUR_JSON


# sha256 of `verify hopf-axioms --n 2 --order 7 --format json` at CLI
# seeds 0..3: long words and big tensor squares and cubes, the command
# the hopf-deep-n2o7 benchmark workload runs.  A change meant to alter
# that output updates these and says why.
HOPF_DEEP_JSON_SHA256 = {
    0: "600e7f3552268be00b93b6fe967ecac93c84aaf7eaf712a61903587ff3d32f9f",
    1: "1c2f21c8495886ce1bb05ca879693f1e3a6e0d8a40667a8e62235b3a3c3279bd",
    2: "5fb264aada866a08a708451d6446153998a081405995f96685fb946aee43584f",
    3: "163a557006a0fb6b2a846915003f7443cec6ebce82729e3ec2175e1c8f1c9376",
}


@pytest.mark.parametrize("seed", sorted(HOPF_DEEP_JSON_SHA256))
def test_verify_hopf_axioms_order_seven_json_is_pinned(capsys, seed):
    code, out = run_cli(capsys, "verify", "hopf-axioms", "--n", "2",
                        "--order", "7", "--seed", str(seed),
                        "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == HOPF_DEEP_JSON_SHA256[seed]


# (exit code, sha256) of `verify hopf-axioms --n N --seed 0 --format json`
# at the ranks where its minor-antipode and reflected-minor sweeps cost
# the most.  A change meant to alter that output updates these and says
# why.
HOPF_AXIOMS_JSON_SHA256 = {
    5: (0, "d1e0463b5897ba8a638b9450295d39175a502ca9b6dba2c6eef164fc4c5ab88e"),
    6: (0, "e1d8ad3c72999befb90e54def53b1f163f8e1939aa980fafd411bf07f7dec695"),
}


@pytest.mark.parametrize("n", sorted(HOPF_AXIOMS_JSON_SHA256))
def test_verify_hopf_axioms_json_is_pinned(capsys, n):
    code, out = run_cli(capsys, "verify", "hopf-axioms", "--n", str(n),
                        "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == HOPF_AXIOMS_JSON_SHA256[n]


# (exit code, sha256) of `verify hopf-axioms --n 3 --order 4 --seed 0
# --format json`: the SL axiom sweep at depth, where the elimination of
# T_33 reaches words of degree 4.  A change meant to alter that output
# updates it and says why.
HOPF_AXIOMS_N3_ORDER_FOUR_JSON = (
    0, "e6e061cf3900ddbbfcff8ab639c176851a4b620207b8268faf9fdcf8ccf72085")


def test_verify_hopf_axioms_n3_order_four_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "hopf-axioms", "--n", "3",
                        "--order", "4", "--seed", "0", "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == HOPF_AXIOMS_N3_ORDER_FOUR_JSON


# (exit code, sha256) of `verify sl2 --order 6 --format json`: the rank-one
# closed coproducts past the default order 4, where each geometric sum
# runs to a sixth power.  A change meant to alter that output updates it
# and says why.
SL2_ORDER_SIX_JSON = (
    0, "d81084f895415442d427c78f4545b61d6089721357acaa164c35d92ee29eddd5")


def test_verify_sl2_order_six_json_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "sl2", "--order", "6",
                        "--format", "json")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == SL2_ORDER_SIX_JSON


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", sorted(SUITES) + ["all"])
def test_verify_order_one_ends_in_a_report(capsys, suite, n):
    # every order up to the default; `all` repeats the suites, so only 1
    top = 1 if suite == "all" else default_order(n)
    for order in range(1, top + 1):
        code = main(["verify", suite, "--n", str(n), "--order", str(order)])
        assert code in (0, 1), (suite, n, order)
        assert "Traceback" not in capsys.readouterr().err


def exit_code(argv):
    """main's exit code, whether it returns it or raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("target", EXPAND_TARGETS)
def test_expand_grid_ends_in_output_or_usage_error(capsys, target, n):
    minor = ["--rows", "1,2", "--cols", "2,1"] if target == "minor" else []
    for order in range(1, default_order(n) + 1):
        for i in range(1, n):
            for fmt in ("text", "json", "latex"):
                argv = ["expand", target, "--n", str(n), "--order",
                        str(order), "--i", str(i), "--format", fmt] + minor
                assert exit_code(argv) in (0, 1, 2), argv
                assert "Traceback" not in capsys.readouterr().err


def _expand_grid_argvs(target):
    """The expand grid above, plus both quotient modes at order 2."""
    minor = ["--rows", "1,2", "--cols", "2,1"] if target == "minor" else []
    for n in (2, 3):
        for fmt in ("text", "json", "latex"):
            for order in range(1, default_order(n) + 1):
                for i in range(1, n):
                    yield ["expand", target, "--n", str(n), "--order",
                           str(order), "--i", str(i), "--format", fmt] + minor
            for mode in ("gl", "sl"):
                yield ["expand", target, "--n", str(n), "--order", "2",
                       "--mode", mode, "--format", fmt] + minor


# sha256 over the exit code and stdout of every invocation in
# `_expand_grid_argvs(target)`.  A change meant to alter what `expand`
# prints updates these and says why.
EXPAND_GRID_SHA256 = {
    "delta-e": "8223f52a5ed00a6a484ecdf150dc131fc3e71dcd86f57c22f2f91ca5aa3d67d2",
    "delta-f": "5b91e27f1f5bde663221edb786f3313fca5332adb4c84a787ed5a29ce194ee83",
    "delta-h": "5f9333ae781d3c0e73bc72ab3ad355c590e2324b6912420d4c2e9252832f3197",
    "phi-e": "452f0ab3ec4c14634fd71338cd8a2bcb1cbd909c68f9451ea9654f636b9eef5f",
    "phi-f": "22c87f5075df44e84ba786e2d8a94f00ed7499516812c0eedbf85f11af80ab69",
    "phi-h": "9fc66a9fb70d84ca83330bf5b31054309812936a6c6d69150d0dd1d43412ca3e",
    "s-e": "17aefbb1d437100a48db86282b8ddb06317b49d83a06ad44e73c0fa075e802be",
    "s-f": "2a264a71e3b0c24b94218a5f97e32db4817f326828baa164dd6097bf782ac714",
    "s-h": "1df053122a2b169e627d136fa44b65921631ccfe9e98928778e4302890b51eb5",
    "qdet": "32c8fc3e541d006c704b5504685a021c5586f5f6a95c4a2e61453699a393354b",
    "minor": "d4fcbb8276deef3692b8bae9f397acc1916c7e1806024b211360eaf6b1599cc0",
    "gauss": "10aac39bb014bee2282e4726872a853c82cab13d75cd73c853fe58ab93bcf6e2",
}


@pytest.mark.parametrize("target", EXPAND_TARGETS)
def test_expand_grid_output_is_pinned(capsys, target):
    digest = hashlib.sha256()
    for argv in _expand_grid_argvs(target):
        code = exit_code(argv)
        digest.update(("%s\0%s\0%s\0" % (" ".join(argv), code,
                                          capsys.readouterr().out)).encode())
    assert digest.hexdigest() == EXPAND_GRID_SHA256[target]


def test_internal_error_exits_three_with_one_line(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "run_suite", crash)
    assert main(["verify", "gauss", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "yangian: internal error: RuntimeError: boom second line\n"


class _ClosedPipe:
    """A stdout whose reader has gone away: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv, verdict", [
    (["expand", "qdet", "--n", "2"], 0),
    (["verify", "gauss", "--n", "2", "--format", "json"], 0),
    (["verify", "gauss", "--n", "2"], 1),
])
def test_closed_pipe_keeps_the_verdict(capsys, monkeypatch, argv, verdict):
    # `yangian ... | head` closes the pipe early: the command still exits
    # with its verdict, silently, and exit 3 stays for crashes
    def with_failure(suite, **kwargs):
        bad = Report("mutated-identity", n=2)
        bad.record("k=1")
        return run_suite(suite, **kwargs) + [bad]

    if verdict:
        monkeypatch.setattr(cli, "run_suite", with_failure)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == verdict
    sink = sys.stdout
    assert sink.name == os.devnull
    sink.close()
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize("argv", [
    ["expand", "delta-e", "--n", "7"],
    ["expand", "delta-e", "--n", "1"],
    ["expand", "delta-e", "--n", "2", "--i", "2"],
    ["expand", "delta-e", "--order", "0"],
    ["expand", "minor", "--n", "2"],
    ["expand", "minor", "--n", "2", "--rows", "1,9", "--cols", "1,2"],
    ["expand", "minor", "--n", "3", "--rows", "1,2", "--cols", "3"],
    ["expand", "minor", "--n", "2", "--rows", "1,x", "--cols", "1,2"],
    ["expand", "nonsense"],
    ["verify", "nonsense"],
    ["verify", "sl2", "--format", "latex"],
    ["verify", "gauss", "--mode", "gl"],
    ["expand", "qdet", "--seed", "1"],
])
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "yangian", "verify", "gauss", "--n", "2",
         "--order", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gauss-lower-diag-upper" in proc.stdout
