"""CLI behavior: subcommands, exit codes, determinism, JSON round trips."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mellinsys import cli, roots, series
from mellinsys.cli import _dumps, check_verify_order, main, parse_basis
from mellinsys.profiles import index_box, make_profile
from mellinsys.series import (TruncatedSeries, convenient_basis_series,
                              is_generating, principal_series)
from mellinsys.weyl import (DiffOperator, horn_mellin_multiplier,
                            horn_system, lattice_matrices, mellin_system,
                            mellin_system_theta_form)
from profile_oracle import profile_suite
from ring_oracle import scaled_root_series
from series_oracle import series_text, series_to_json
from test_golden import CASES as GOLDEN_CASES
from weyl_oracle import (linear, operator_to_json, render, render_ode,
                         theta_product_by_composition)


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_general_cubic(capsys):
    code, out, _ = run_cli(capsys, "dims", "3", "2", "1")
    assert code == 0
    assert "rank      : 9" in out
    assert "dim Y     : 7" in out
    assert "(0,2) (2,1)" in out
    assert "(0,0) (0,1) (0,2)" in out


def test_dims_gcd_two(capsys):
    code, out, _ = run_cli(capsys, "dims", "6", "4", "2")
    assert code == 0
    assert "rank      : 36" in out
    assert "dim Y     : 36" in out


def test_dims_quadratic(capsys):
    code, out, _ = run_cli(capsys, "dims", "2", "1")
    assert code == 0
    assert "rank      : 2" in out
    assert "dim Y     : 2" in out


def test_invalid_profile_exits_one(capsys):
    code, _, err = run_cli(capsys, "dims", "3", "3", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("cmd", [["dims"], ["operators", "--check-horn"],
                                 ["series", "--principal"], ["verify"]])
def test_box_over_size_cap_exits_one(capsys, cmd):
    # rejected values only: a box this large is never enumerated
    code, out, err = run_cli(capsys, *cmd, "20", "19", "18", "17", "16")
    assert code == 1
    assert out == ""
    assert "size cap MAX_BOX = 4096" in err
    assert "20^4 = 160000" in err


@pytest.mark.parametrize("m,ms,extra,floor", [
    (3, [1], ["--order", "4"], 5),
    (2, [1], ["--order", "1"], 4),
    (6, [5, 4, 3], [], 15),  # default order 12
])
def test_verify_order_below_floor_exits_one(capsys, m, ms, extra, floor):
    code, out, err = run_cli(capsys, "verify", str(m), *map(str, ms), *extra)
    assert code == 1
    assert out == ""
    assert f"max(m + 2, n(m - 1)) = {floor}" in err
    assert f"profile ({m};{','.join(map(str, ms))})" in err
    check_verify_order(make_profile(m, ms), floor)  # the floor itself passes


@pytest.mark.parametrize("m,ms,floor", [(64, [1], 66), (40, [3, 1], 78)])
def test_verify_floor_above_the_cap_names_both(capsys, monkeypatch, m, ms,
                                               floor):
    """No order can pass a floor above MAX_ORDER, so every call says so."""
    monkeypatch.setattr(cli, "cmd_verify", lambda *a, **k: pytest.fail("ran"))
    profile = [str(m), *map(str, ms)]
    for extra in ([], ["--order", str(floor)], ["--order", "64"]):
        code, out, err = run_cli(capsys, "verify", *profile, *extra)
        assert code == 1
        assert out == ""
        assert f"max(m + 2, n(m - 1)) = {floor}" in err
        assert "above the cap MAX_ORDER = 64" in err


def test_verify_order_floor_accepts_every_accepted_call():
    accepted = [((m, [m1]), 12) for m in range(2, 10) for m1 in range(1, m)]
    accepted += [((4, [2, 1]), 6), ((6, [4, 2]), 12)]
    assert len(accepted) == 38
    for (m, ms), order in accepted:
        check_verify_order(make_profile(m, ms), order)


@pytest.mark.parametrize("cmd", [["dims"], ["operators"],
                                 ["series", "--principal"], ["verify"]])
def test_order_over_cap_exits_one_before_any_work(capsys, monkeypatch, cmd):
    # every command is replaced, so a value past the cap never starts work
    for name in ("cmd_dims", "cmd_operators", "cmd_series", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran"))
    for order in ("65", "1000000000"):
        code, out, err = run_cli(capsys, cmd[0], "2", "1", *cmd[1:],
                                 "--order", order)
        assert code == 1
        assert out == ""
        assert f"--order {order} exceeds the cap MAX_ORDER = 64" in err


@pytest.mark.parametrize("cmd", [["dims"], ["operators"],
                                 ["series", "--principal"]])
def test_negative_order_exits_one_before_any_work(capsys, monkeypatch, cmd):
    for name in ("cmd_dims", "cmd_operators", "cmd_series", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, cmd[0], "3", "2", *cmd[1:],
                             "--order", "-1")
    assert code == 1
    assert out == ""
    assert err == ("error: --order -1 is negative: the truncation order "
                   "must be at least 0\n")


def test_series_order_below_the_basis_degree_exits_one(capsys):
    code, out, err = run_cli(capsys, "series", "3", "2", "--basis", "2",
                             "--order", "1")
    assert code == 1
    assert out == ""
    assert err == "error: --basis 2 needs --order at least |I| = 2, got 1\n"
    code, out, _ = run_cli(capsys, "series", "3", "2", "--basis", "2",
                           "--order", "2")
    assert code == 0
    assert out.startswith("-- basis(2) (order 2, ring rational)")


def test_order_at_cap_is_accepted(capsys):
    assert cli.MAX_ORDER == 64
    code, out, _ = run_cli(capsys, "series", "2", "1", "--principal",
                           "--order", "64")
    assert code == 0
    assert out.startswith("-- principal (order 64, ring rational)")


def test_usage_error_exits_one(capsys):
    code, _, _ = run_cli(capsys, "dims")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_operators_quadratic(capsys):
    code, out, _ = run_cli(capsys, "operators", "2", "1", "--check-horn")
    assert code == 0
    assert "(x^2 + 4) D^2 + x D - 1" in out
    assert "horn->mellin identity: OK" in out


def test_operators_depressed_cubic(capsys):
    code, out, _ = run_cli(capsys, "operators", "3", "1")
    assert code == 0
    assert "(4 x^3 + 27) D^3 + 18 x^2 D^2 + 10 x D - 2" in out


def test_operators_check_horn_bivariate(capsys):
    code, out, _ = run_cli(capsys, "operators", "3", "2", "1", "--check-horn")
    assert code == 0
    assert out.count("OK") >= 2


def test_series_principal(capsys):
    code, out, _ = run_cli(capsys, "series", "3", "2", "1", "--principal",
                           "--order", "6")
    assert code == 0
    assert "-1/3 * x1" in out
    assert "-1/3 * x2" in out


def test_series_basis(capsys):
    code, out, _ = run_cli(capsys, "series", "2", "1", "--basis", "0")
    assert code == 0
    assert "1/8 * x^2" in out


def test_series_generating_check(capsys):
    code, out, _ = run_cli(capsys, "series", "6", "4", "2", "--principal",
                           "--order", "10", "--generating-check")
    assert code == 0
    assert "GENERATING" in out
    code, out, _ = run_cli(capsys, "series", "3", "2", "1", "--principal",
                           "--order", "6", "--generating-check")
    assert code == 0
    assert "NOT GENERATING" in out


def test_series_roots(capsys):
    code, out, _ = run_cli(capsys, "series", "2", "1", "--roots", "--order", "4")
    assert code == 0
    assert "root[0]" in out and "root[1]" in out


def test_series_requires_selection(capsys):
    code, _, err = run_cli(capsys, "series", "2", "1")
    assert code == 1
    assert "nothing selected" in err


def test_verify_quadratic(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "1", "--order", "8")
    assert code == 0
    assert "all checks passed" in out
    assert "theta-factorization" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # the smallest nonzero substitution residual fails the exact gate
    monkeypatch.setattr(roots, "_substitution_residual", lambda p, order: 5e-324)
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1", "--order", "10")
    assert code == 2
    assert "FAIL" in out


ROOT_CACHES = (roots._source, roots._images, roots._substitution_residual,
               roots._branch_residual)


@pytest.fixture
def fresh_root_caches():
    """Clear the per-(profile, order) caches of ``roots`` around a test
    that patches what they are built from."""
    for cache in ROOT_CACHES:
        cache.cache_clear()
    yield
    for cache in ROOT_CACHES:
        cache.cache_clear()


def _failed_checks(capsys, argv):
    """(exit code, failing check names) of ``verify`` in text, the same
    from --json, and the --json ``ok``."""
    code, out, _ = run_cli(capsys, "verify", *argv)
    text = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    json_code, out, _ = run_cli(capsys, "verify", *argv, "--json")
    payload = json.loads(out)
    return (code, text, json_code,
            [c["name"] for c in payload["checks"] if not c["ok"]],
            payload["ok"])


def _with_term_off_the_congruence(real):
    """``real`` (a ``mellin_system``) with x_1 added to the first operator:
    a term x^a D^b with a - b = e_1, which breaks a = b (mod m)."""
    def extra(p):
        ops = real(p)
        one = (1,) + (0,) * (p.n - 1)
        return (DiffOperator(p.n, {**ops[0].terms,
                                   (one, (0,) * p.n): Fraction(1)}),
                *ops[1:])
    return extra


@pytest.mark.parametrize("profile,exp", [
    (["3", "2", "1"], (2, 6)), (["3", "2", "1"], (1, 0)),
    (["5", "2"], (8,)), (["6", "4", "2"], (0, 3)), (["4", "2", "1"], (5, 3))])
def test_verify_fails_on_a_principal_coefficient_off_by_one(
        capsys, monkeypatch, fresh_root_caches, profile, exp):
    """y_pr with one coefficient of degree <= 8 off by 1: the exact
    root-identities gate and the point-branches witness both fail, in text
    and --json, and verify exits 2.  At the base point the change moves a
    branch by 0.2^|s| >= 2.6e-6, above every tolerance at order 12."""
    real = roots.principal_series

    def bumped(p, order):
        y = real(p, order)
        return TruncatedSeries(y.n_vars, y.order,
                               {**y.terms, exp: y.coefficient(exp) + 1})
    monkeypatch.setattr(roots, "principal_series", bumped)
    code, text, json_code, failed, ok = _failed_checks(capsys, profile)
    assert code == json_code == 2 and ok is False
    for names in (text, failed):
        assert {"root-identities", "point-branches"} <= set(names)


@pytest.mark.parametrize("name", ["_substitution_residual", "_branch_residual"])
def test_verify_gates_each_root_identity(capsys, monkeypatch, name):
    """Either exact residual patched to 1.0 fails root-identities, alone,
    and --json reports "ok": false with exit 2."""
    monkeypatch.setattr(roots, name, lambda p, order: 1.0)
    code, text, json_code, failed, ok = _failed_checks(capsys,
                                                       ["3", "2", "1"])
    assert code == json_code == 2 and ok is False
    assert text == failed == ["root-identities"]


def test_verify_root_identities_fail_on_a_broken_congruence(
        capsys, monkeypatch, fresh_root_caches):
    """An operator term that breaks a = b (mod m) makes the branch
    residual infinite: root-identities fails."""
    monkeypatch.setattr(roots, "mellin_system",
                        _with_term_off_the_congruence(roots.mellin_system))
    code, text, *_ = _failed_checks(capsys, ["3", "2", "1", "--order", "8"])
    assert code == 2 and "root-identities" in text
    assert roots.root_identities(make_profile(3, [2, 1]), 8) == (0.0,
                                                                 math.inf)


def test_basis_annihilation_fails_on_a_term_off_the_congruence(capsys,
                                                               monkeypatch):
    """A Mellin operator term x^a D^b with a != b (mod m), patched into
    the operators that basis-annihilation applies, fails that check alone,
    with a detail that names the congruence."""
    monkeypatch.setattr(cli, "mellin_system",
                        _with_term_off_the_congruence(cli.mellin_system))
    code, text, json_code, failed, _ = _failed_checks(capsys, ["3", "2", "1"])
    assert code == json_code == 2
    assert text == failed == ["basis-annihilation"]
    _, out, _ = run_cli(capsys, "verify", "3", "2", "1")
    line = next(ln for ln in out.splitlines() if "basis-annihilation" in ln)
    assert "breaks a = b (mod 3)" in line


def test_union_annihilation_refuses_a_silent_term_off_the_congruence(
        capsys, monkeypatch):
    """A term x^a D^b with a != b (mod m) and b_1 above the order sends
    every series to 0, so one apply per f_I still passes; the union
    verdict would be unsound under such a term, so basis-annihilation
    fails, alone."""
    order, real = 12, cli.mellin_system

    def silent(p):
        ops = real(p)
        term = ((order + 2, 0), (order + 1, 0))
        return (DiffOperator(p.n, {**ops[0].terms, term: 1}), *ops[1:])
    p = make_profile(3, [2, 1])
    assert _annihilated_index_by_index(p, silent(p), order)
    monkeypatch.setattr(cli, "mellin_system", silent)
    code, text, json_code, failed, _ = _failed_checks(
        capsys, ["3", "2", "1", "--order", str(order)])
    assert code == json_code == 2
    assert text == failed == ["basis-annihilation"]


def _annihilated_index_by_index(p, ops, order):
    """The verdict of basis-annihilation taken one f_I at a time."""
    for idx in index_box(p):
        f = convenient_basis_series(p, idx, order)
        if f.coefficient(idx) != 1 or any(not op.apply(f).is_zero()
                                          for op in ops):
            return False
    return True


@settings(deadline=None, max_examples=12, derandomize=True)
@given(st.sampled_from(profile_suite(7, 3, d_one_only=False)),
       st.booleans())
def test_union_annihilation_equals_the_per_index_verdict(p, bump):
    """One apply per operator to the union of the f_I gives the verdict of
    one apply per f_I, for the Mellin operators and for the same operators
    with their leading coefficient off by 1.  That coefficient is of x^a
    D^b with |b| = m, whose image is reliable only through degree order -
    m, so the order is at least 2m, as well as the order floor."""
    ops = mellin_system(p)
    if bump:
        (key, c), *_ = ops[0].sorted_terms()
        ops = (DiffOperator(p.n, {**ops[0].terms, key: c + 1}), *ops[1:])
    order = max(2 * p.m, p.n * (p.m - 1))
    verdict = cli._basis_annihilated(p, ops, order)
    assert verdict == _annihilated_index_by_index(p, ops, order)
    assert verdict is not bump


def test_verify_fails_when_a_residue_class_is_dropped(capsys, monkeypatch):
    """y_pr without the class of 0 has one character fewer: rotation-rank
    reads |B'| - 1 and fails."""
    real = cli.principal_series

    def dropped(profile, order):
        y = real(profile, order)
        return TruncatedSeries(y.n_vars, y.order, {
            s: c for s, c in y.terms.items() if any(v % profile.m for v in s)})
    monkeypatch.setattr(cli, "principal_series", dropped)
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1")
    assert code == 2
    line = next(ln for ln in out.splitlines() if "rotation-rank" in ln)
    assert line.startswith("FAIL") and "= 6 (expected |B'| = 7)" in line


def test_verify_reports_a_twist_rank_mismatch(capsys, monkeypatch):
    """A numeric witness that disagrees with the class count prints a FAIL
    line with the message, in text and --json, and exits 2."""
    real = series.rank_complex
    monkeypatch.setattr(series, "rank_complex",
                        lambda rows: real(rows) - 1)
    message = "exact twist rank 7 != numeric embedded rank 6"
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1")
    assert code == 2
    line = next(ln for ln in out.splitlines() if "rotation-rank" in ln)
    assert line.startswith("FAIL") and message in line
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1", "--json")
    assert code == 2
    payload = json.loads(out)
    check = next(c for c in payload["checks"] if c["name"] == "rotation-rank")
    assert not check["ok"] and message in check["detail"]
    assert all(e["rank"] is None for e in payload["equations"])


@pytest.mark.parametrize("profile", [["3", "2", "1"], ["4", "2"]])
def test_verify_fails_on_a_wrong_mellin_coefficient(capsys, monkeypatch,
                                                    profile):
    """One coefficient of the first Mellin operator off by 1 leaves the
    convenient basis unannihilated: basis-annihilation fails, alone, in
    text and --json, and verify exits 2."""
    real = cli.mellin_system

    def bumped(p):
        ops = real(p)
        (key, c), *_ = ops[0].sorted_terms()
        return (DiffOperator(p.n, {**ops[0].terms, key: c + 1}), *ops[1:])
    roots._images.cache_clear()
    monkeypatch.setattr(cli, "mellin_system", bumped)
    code, out, _ = run_cli(capsys, "verify", *profile)
    assert code == 2
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert [ln.split()[1] for ln in failed] == ["basis-annihilation"]
    code, out, _ = run_cli(capsys, "verify", *profile, "--json")
    assert code == 2
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] \
        == ["basis-annihilation"]
    roots._images.cache_clear()


def test_verify_fails_on_a_wrong_phase(capsys, monkeypatch):
    """One phase E_J[k] of the per-profile table off by 1 (J = (1, 0), k =
    1, where every coset equation of (3;2,1) has phase 0) breaks the
    relation e_0 - e_1: relation-residuals, log-solutions and direct-sum
    fail, in text and --json, and verify exits 2."""
    real = roots._phase_table

    def bumped(p):
        table = dict(real(p))
        r, row = table[1, 0]
        table[1, 0] = (r, (row[0], (row[1] + 1) % p.m, *row[2:]))
        return table
    assert real(make_profile(3, [2, 1]))[1, 0][1] == (0, 0, 0)
    monkeypatch.setattr(roots, "_phase_table", bumped)
    failing = ["relation-residuals", "log-solutions", "direct-sum"]
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1")
    assert code == 2
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert [ln.split()[1] for ln in failed] == failing
    code, out, _ = run_cli(capsys, "verify", "3", "2", "1", "--json")
    assert code == 2
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == failing


def _horn_x_by_own_factors(p, j, first):
    """H'_j from its own factors by composition, with the constant of the
    first tail factor -<M,theta>/m - 1/m replaced by ``first``."""
    m, n, s = p.m, p.n, Fraction(1, p.m)
    lead = theta_product_by_composition(
        n, [linear([int(i == j) for i in range(n)], -k) for k in range(m)])
    tail = ([linear([-s * v for v in p.m_list], -s - k)
             for k in range(p.m_list[j])]
            + [linear([-s * v for v in p.mprime_list], s - k)
               for k in range(p.mprime_list[j])])
    tail[0] = linear([-s * v for v in p.m_list], first)
    x_m = DiffOperator.x_power(n, j, m, coeff=(-1) ** p.mprime_list[j])
    return lead - x_m * theta_product_by_composition(n, tail)


@pytest.mark.parametrize("profile,j", [(("3", "2", "1"), 1), (("4", "3"), 0),
                                       (("5", "3", "2", "1"), 2)])
def test_check_horn_fails_on_a_wrong_tail_factor(capsys, monkeypatch,
                                                 profile, j):
    """One Horn tail factor of the x-form H'_j changed from
    -<M,theta>/m - 1/m to -<M,theta>/m + 1/m: --check-horn prints MISMATCH
    for that operator alone and exits 2."""
    real = cli.horn_system
    p = make_profile(int(profile[0]), [int(v) for v in profile[1:]])
    assert _horn_x_by_own_factors(p, j, Fraction(-1, p.m)) == real(p)[1][j]

    def wrong(p):
        horn_w, horn_x = real(p)
        horn_x[j] = _horn_x_by_own_factors(p, j, Fraction(1, p.m))
        return horn_w, horn_x
    monkeypatch.setattr(cli, "horn_system", wrong)
    code, out, _ = run_cli(capsys, "operators", *profile, "--check-horn")
    assert code == 2
    verdicts = [ln.rsplit(" ", 1)[1] for ln in out.splitlines()
                if ln.startswith("horn->mellin[")]
    assert verdicts == ["MISMATCH" if k == j else "OK" for k in range(p.n)]
    assert "horn->mellin identity: OK" not in out


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    for argv in (["dims", "3", "2", "1"], ["dims", "4", "2", "--json"],
                 ["series", "2", "1", "--principal"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("m,m1", [(m, m1) for m in range(2, 10)
                                  for m1 in range(1, m)])
def test_verify_univariate_sweep(capsys, m, m1):
    code, out, _ = run_cli(capsys, "verify", str(m), str(m1))
    assert code == 0, out


@pytest.mark.parametrize("profile", [("4", "3", "1"), ("5", "3", "1")])
def test_verify_bivariate(capsys, profile):
    code, out, _ = run_cli(capsys, "verify", *profile)
    assert code == 0, out


def test_output_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "dims", "3", "2", "1")
    _, out2, _ = run_cli(capsys, "dims", "3", "2", "1")
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "verify", "2", "1", "--order", "8")
    _, v2, _ = run_cli(capsys, "verify", "2", "1", "--order", "8")
    assert v1 == v2


def test_json_outputs_parse(capsys):
    code, out, _ = run_cli(capsys, "dims", "3", "2", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 9
    assert payload["missing"] == [[0, 2], [2, 1]]

    code, out, _ = run_cli(capsys, "operators", "2", "1", "--json")
    payload = json.loads(out)
    assert payload["matrices"]["A"] == [[1, 1, 1], [2, 1, 0]]
    assert payload["matrices"]["c"] == ["-1/2", "0", "1/2"]
    assert payload["matrices"]["toric_pairs"] == [[[0, 2, 0], [1, 0, 1]]]

    code, out, _ = run_cli(capsys, "series", "2", "1", "--principal", "--json",
                           "--order", "4")
    payload = json.loads(out)
    assert payload["series"][0]["terms"][0] == {"exp": [0], "coeff": "1"}

    code, out, _ = run_cli(capsys, "verify", "2", "1", "--order", "8", "--json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])
    assert payload["equations"][0]["twist"] == [0]
    assert payload["equations"][0]["rank"] == 2
    assert payload["equations"][0]["annihilation_residual"] < 1e-8
    # round trip through the documented schema
    assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# --basis validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["0,a", "0", "0,3", "0,1,2", "", "-1,0",
                                   "-1"])
def test_series_basis_rejected_before_any_work(capsys, value):
    code, out, err = run_cli(capsys, "series", "3", "2", "1", "--basis", value)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "n = 2 comma-separated integers in 0..m-1 = 0..2" in err
    assert "profile (3;2,1)" in err
    assert f"got {value!r}" in err
    assert "invalid literal" not in err and "outside the box" not in err


def test_series_basis_accepts_every_golden_and_box_index():
    accepted = [(argv[1:argv.index("--basis")], argv[argv.index("--basis") + 1])
                for _, argv, _ in GOLDEN_CASES if "--basis" in argv]
    assert len(accepted) == 4
    for profile, value in accepted:
        m, *ms = map(int, profile)
        assert parse_basis(make_profile(m, ms), value) == tuple(
            int(v) for v in value.split(","))
    p = make_profile(4, [3, 1])
    for i in range(4):
        for j in range(4):
            assert parse_basis(p, f"{i},{j}") == (i, j)


# ---------------------------------------------------------------------------
# the indent-2 JSON writer
# ---------------------------------------------------------------------------

_SPECIAL_TEXT = st.text(alphabet=st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\n", "\t", "\x7f", "\u00e9", "\u2028",
     "\U0001f600", "a", " "]))
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.sampled_from([2**64, -(2**100), 10**300])
                 | st.floats()
                 | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                 | st.text() | _SPECIAL_TEXT)
_JSON_KEYS = (st.text() | _SPECIAL_TEXT | st.integers() | st.booleans()
              | st.none() | st.floats())
_INTS = st.integers() | st.sampled_from([2**64, -(2**100), 10**300])


def _rows(item, width=st.integers(0, 4)):
    """Lists of 1-4 rows, each a list of ``width`` drawn items."""
    return width.flatmap(lambda k: st.lists(
        st.lists(item, min_size=k, max_size=k), min_size=1, max_size=4))


# lists of equal-length int lists, which _dumps formats one row per call,
# and the near misses that must take its generic path
_INDEX_LISTS = (_rows(_INTS)
                | _rows(_INTS | st.booleans(), st.integers(1, 3))
                | _rows(_INTS | st.floats(), st.integers(1, 3))
                | st.lists(st.lists(_INTS, max_size=3), min_size=2,
                           max_size=4)
                | _rows(_INTS).map(lambda rows: [tuple(r) for r in rows])
                | _rows(_INTS, st.integers(1, 3)).map(
                    lambda rows: rows + [tuple(rows[0])]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_KEYS, inner, max_size=4)
                   | st.lists(st.booleans(), min_size=1, max_size=4)
                   | st.lists(st.integers(), min_size=1, max_size=4)
                   | st.lists(st.text() | _SPECIAL_TEXT, min_size=1,
                              max_size=4)
                   | _INDEX_LISTS),
    max_leaves=24)


@settings(deadline=None, max_examples=300)
@given(_JSON_VALUES)
@example([[1, 2], [3, -4], [10**300, 0]])
@example({"gamma": [[0, 1, 2]], "pairs": [[[1, 0], [0, 1]]]})
@example([[1, True], [2, 3]])
@example([[1, 2.0], [3, 4]])
@example([[1], [2, 3]])
@example([[], []])
@example([(1, 2), (3, 4)])
@example([[1, 2], (3, 4)])
def test_dumps_equals_stdlib_indent_two(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": [object()]}, object(),
                                 {frozenset(): 1}])
def test_dumps_rejects_what_stdlib_rejects(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps(obj)
    assert str(got.value) == str(want.value)


SWEEP_PROFILES = [(m, list(ms)) for m in range(2, 6) for n in (1, 2)
                  for ms in combinations(range(m - 1, 0, -1), n)] + [
                      (4, [3, 2, 1])]


@pytest.mark.parametrize("m,ms", SWEEP_PROFILES,
                         ids=[f"{m}-{'-'.join(map(str, ms))}"
                              for m, ms in SWEEP_PROFILES])
def test_json_output_is_stdlib_indent_two(capsys, m, ms):
    args = [str(m), *map(str, ms), "--json"]
    for cmd in (["dims"], ["operators", "--check-horn"],
                ["series", "--principal", "--roots"]):
        code, out, _ = run_cli(capsys, *cmd, *args)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"



# ---------------------------------------------------------------------------
# term rows against the dict-form oracles
# ---------------------------------------------------------------------------

def _term_row_cases():
    """Every profile with m <= 7, n <= 3, each with a seeded order in 0..8,
    a seeded index I with |I| <= order and a seeded --check-horn."""
    rng = random.Random("term-rows")
    cases = []
    for m in range(2, 8):
        for n in (1, 2, 3):
            for ms in combinations(range(m - 1, 0, -1), n):
                order = rng.randrange(9)
                index = []
                for _ in ms:
                    index.append(rng.randrange(min(m - 1, order - sum(index))
                                               + 1))
                cases.append((m, list(ms), order, tuple(index),
                              rng.random() < 0.5))
    return cases


TERM_ROW_CASES = _term_row_cases()
# the orders of the export benchmark, where exponents have two digits
HIGH_ORDER_CASES = [(7, [6, 5, 4], 18, (6, 5, 4), True),
                    (6, [5, 3, 1], 15, (5, 0, 3), False),
                    (5, [4, 3, 2], 12, (4, 1, 2), True),
                    (7, [3], 12, (5,), False)]


def _series_payload(p, order, index, generating):
    ypr = principal_series(p, order)
    chosen = [("principal", ypr),
              (f"basis{cli._fmt_vec(index)}",
               convenient_basis_series(p, index, order))]
    chosen += [(f"root[{j}]", scaled_root_series(p, j, order))
               for j in range(p.m)]
    payload = {"profile": p.to_json(), "order": order,
               "series": [{"name": name, **series_to_json(f)}
                          for name, f in chosen]}
    if generating:
        payload["generating"] = is_generating(ypr, p)
    return payload


def _operators_payload(p, check_horn):
    horn_w, horn_x = horn_system(p)
    lattice = lattice_matrices(p)
    payload = {
        "profile": p.to_json(),
        "mellin": [operator_to_json(op) for op in mellin_system(p)],
        "cleared": [operator_to_json(op) for op in mellin_system_theta_form(p)],
        "horn_w": [operator_to_json(op) for op in horn_w],
        "horn_x": [operator_to_json(op) for op in horn_x],
        "matrices": {
            "A": [list(r) for r in lattice.A],
            "A_prime": [[str(v) for v in r] for r in lattice.A_prime],
            "B": [list(r) for r in lattice.B],
            "c": [str(v) for v in lattice.c],
            "beta": list(lattice.beta),
            "beta_prime": [str(v) for v in lattice.beta_prime],
            "horn_rank": lattice.horn_rank,
            "toric_pairs": [[list(u), list(v)] for u, v in lattice.toric_pairs],
        },
    }
    if check_horn:
        payload["horn_mellin_multipliers"] = [
            str(horn_mellin_multiplier(p, j)) for j in range(p.n)]
    return payload


def _operator_lines(p):
    """The operator lines of ``operators`` text, from the oracle renders."""
    horn_w, horn_x = horn_system(p)
    text = render if p.n > 1 else render_ode
    return ([f"mellin[{j + 1}]  : {text(op)}"
             for j, op in enumerate(mellin_system(p))]
            + [f"cleared[{j + 1}] : {text(op)}"
               for j, op in enumerate(mellin_system_theta_form(p))]
            + [f"horn_w[{j + 1}]  : {text(op, 'w')}"
               for j, op in enumerate(horn_w)]
            + [f"horn_x[{j + 1}]  : {text(op)}"
               for j, op in enumerate(horn_x)])


@pytest.mark.parametrize("m,ms,order,index,check_horn",
                         TERM_ROW_CASES + HIGH_ORDER_CASES,
                         ids=[f"{m}-{'-'.join(map(str, ms))}-o{order}"
                              for m, ms, order, *_ in TERM_ROW_CASES
                              + HIGH_ORDER_CASES])
def test_term_rows_match_the_dict_form(capsys, m, ms, order, index,
                                       check_horn):
    p = make_profile(m, ms)
    args = [str(m), *map(str, ms), "--order", str(order)]
    basis = ["--basis", ",".join(map(str, index))]
    generating = order >= p.n * (m - 1)
    code, out, _ = run_cli(capsys, "series", *args, "--principal", *basis,
                           "--roots", "--json",
                           *(["--generating-check"] if generating else []))
    assert code == 0
    want = _series_payload(p, order, index, generating)
    assert out == json.dumps(want, indent=2) + "\n"

    code, out, _ = run_cli(capsys, "series", *args, "--roots")
    assert code == 0
    assert out == "".join(
        f"-- root[{j}] (order {order}, ring cyclotomic)\n"
        f"{series_text(scaled_root_series(p, j, order))}\n"
        for j in range(m))

    code, out, _ = run_cli(capsys, "series", *args, "--principal", *basis)
    assert code == 0
    assert out == (f"-- principal (order {order}, ring rational)\n"
                   f"{series_text(principal_series(p, order))}\n"
                   f"-- basis{cli._fmt_vec(index)} (order {order}, ring "
                   f"rational)\n"
                   f"{series_text(convenient_basis_series(p, index, order))}"
                   "\n")

    code, out, _ = run_cli(capsys, "operators", *args, "--json",
                           *(["--check-horn"] if check_horn else []))
    assert code == 0
    assert out == json.dumps(_operators_payload(p, check_horn), indent=2) + "\n"

    code, out, _ = run_cli(capsys, "operators", *args)
    assert code == 0
    assert out.splitlines()[1:1 + 4 * p.n] == _operator_lines(p)


def test_term_row_cases_cover_every_order():
    assert {c[2] for c in TERM_ROW_CASES} == set(range(9))
    assert len(TERM_ROW_CASES) == 91
    assert all(sum(c[3]) <= c[2] for c in TERM_ROW_CASES)
    assert {c[4] for c in TERM_ROW_CASES} == {False, True}


def test_roots_build_no_group_ring_series(capsys, monkeypatch):
    """``series --roots`` reads every branch off the rows of y_pr, with no
    Q[Z/m] arithmetic."""
    def refuse(*args, **kwargs):
        raise AssertionError("Q[Z/m] arithmetic ran")

    for module, name in ((roots, "mul"), (roots, "vanishes"),
                         (cli, "vanishes"), (cli, "roots_of_unity")):
        monkeypatch.setattr(module, name, refuse)
    for extra in ([], ["--json"], ["--principal", "--generating-check"]):
        code, out, _ = run_cli(capsys, "series", "4", "3", "1", "--roots",
                               "--order", "6", *extra)
        assert code == 0
        assert "root[3]" in out
