"""Command-line front end.

Subcommands: ``dims`` (box/dimension combinatorics), ``operators``
(Mellin, cleared, and Horn operators plus the homogeneous matrices),
``series`` (principal / basis / root-branch expansions), ``verify``
(the full check battery for one profile).

Exit codes: 0 all checks pass, 1 usage or profile error, 2 verification
failure.  Output is deterministic for a fixed (arguments, seed) pair.
``--json`` output is byte-identical to ``json.dumps(obj, indent=2)`` of the
dict form in docs/schema.md; it is written by :func:`_dumps`, which builds
the same text in one pass.  Series and operator terms are held as rows
(:class:`_TermRows`) of exponent tuples and coefficient text, and the m
root branches of ``series --roots`` are read off the rows of y_pr: branch
j carries y_s in coordinate j(1 + <M, s>) mod m of Q[Z/m].
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import roots as roots_mod
from .profiles import (ExponentProfile, ProfileError, algebraic_index_set,
                       coset_representatives, dims, dot, index_box,
                       make_profile, missing_index_set, modular_counts,
                       relation_basis, var_names)
from .rings import roots_of_unity, vanishes
from .series import (convenient_basis_series, independence_rank,
                     is_generating, monomial_text, principal_series,
                     twist_rank)
from .weyl import (DiffOperator, discriminant_poly, derivative_factorization,
                   horn_mellin_multiplier, horn_system, lattice_matrices,
                   leading_coefficient, mellin_system,
                   mellin_system_theta_form, poly_scale_ratio,
                   theta_factorization)

DEFAULT_ORDER = 12
DEFAULT_SEED = 0
# Cap on --order, checked before any work.  The largest order any test,
# golden case or benchmark call uses is 20 (golden
# `series 6 4 2 --basis 5,3 --order 20 --json`).
MAX_ORDER = 64


@dataclass
class RunConfig:
    profile: ExponentProfile
    order: int = DEFAULT_ORDER
    seed: int = DEFAULT_SEED
    as_json: bool = False


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting with status 1 on usage errors.

    A negative value with commas, such as ``--basis -1,0``, is read as a
    value rather than an unknown option, so that its own rule rejects it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,]*$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_vec(vec) -> str:
    return "(" + ",".join(str(v) for v in vec) + ")"


def _profile_label(profile: ExponentProfile) -> str:
    return f"({profile.m};{','.join(str(v) for v in profile.m_list)})"


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii


class _TermRows:
    """A term list of docs/schema.md held as rows, for :func:`_write_json`.

    A row is its exponent tuples, one for each name in ``keys`` ("exp", or
    "x" and "d"), then its coefficient text.  With ``m`` unset the
    coefficient is that string.  Root branch ``j`` over Q[Z/m] takes rows
    (exponent, k, text): its coefficient lists m strings, the text in
    coordinate j*k mod m and "0" in the others.  ``heads`` keeps, per
    indent, each row's text up to its coefficient; the branches of one
    y_pr share it.
    """

    __slots__ = ("keys", "rows", "m", "j", "heads")

    def __init__(self, keys, rows, m=None, j=0, heads=None):
        self.keys, self.rows, self.m, self.j = keys, rows, m, j
        self.heads = {} if heads is None else heads


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, built in one pass.

    With ``indent`` set, the stdlib runs its pure-Python encoder through a
    chain of generators.  This recurses once, appends to a single list and
    joins a flat list of plain str or plain int in one call.  Strings are
    escaped as with ``ensure_ascii``; every other scalar (float, bool, None)
    goes through the stdlib's C encoder, so NaN, +-Infinity and float repr
    match.  Circular containers are not detected (they exhaust recursion).
    A :class:`_TermRows` is written as the list of term dicts it stands
    for, one string per term, with no dict, list or call per term.
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(obj, out: list, nl: str) -> None:
    """Append the indent-2 JSON text of ``obj``; ``nl`` is the newline plus
    the indent of the line that ``obj`` starts on."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                key = json.dumps(key)
            out.append(sep + _json_str(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(_json_str, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            sep = "[" + inner
            for value in obj:
                out.append(sep)
                _write_json(value, out, inner)
                sep = "," + inner
            out.append(nl + "]")
            return
        out.append("[" + inner + ("," + inner).join(items) + nl + "]")
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, _TermRows):
        _write_rows(obj, out, nl)
    else:
        out.append(json.dumps(obj))


def _write_rows(terms: _TermRows, out: list, nl: str) -> None:
    rows = terms.rows
    if not rows:
        out.append("[]")
        return
    item = nl + "  "  # each term opens here
    key = item + "  "
    val = key + "  "
    heads = terms.heads.get(nl)
    if heads is None:
        sep = "," + val
        fields = [(i, f"{_json_str(name)}: [{val}")
                  for i, name in enumerate(terms.keys)]
        heads = terms.heads[nl] = [
            "{" + key + "".join([f + sep.join(map(str, row[i])) + key + "],"
                                 + key for i, f in fields]) + '"coeff": '
            for row in rows]
    close = item + "}"
    if terms.m is None:
        body = [h + _json_str(row[-1]) + close for h, row in zip(heads, rows)]
    else:
        m, j = terms.m, terms.j
        pre = ["[" + val + ('"0",' + val) * k for k in range(m)]
        post = [("," + val + '"0"') * (m - 1 - k) + key + "]" + close
                for k in range(m)]
        body = [h + pre[j * k % m] + _json_str(text) + post[j * k % m]
                for h, (_, k, text) in zip(heads, rows)]
    out.append("[" + item + ("," + item).join(body) + nl + "]")


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------

def cmd_dims(config: RunConfig) -> int:
    p = config.profile
    report = dims(p)
    bprime = algebraic_index_set(p)
    missing = missing_index_set(p)
    gamma = coset_representatives(p)
    if config.as_json:
        payload = {
            "profile": p.to_json(),
            "rank": report.rank,
            "dim_Y": report.dim_Y,
            "dim_R": report.dim_R,
            "dim_S": report.dim_S,
            "card_Bprime": report.card_Bprime,
            "Bprime": [list(i) for i in bprime],
            "missing": [list(i) for i in missing],
            "gamma": [list(i) for i in gamma],
        }
        if p.d == 1:
            payload["modular_counts"] = modular_counts(p)
        print(_dumps(payload))
        return 0
    print(f"profile   : {p.equation_str()}   (m={p.m}, n={p.n}, d={p.d})")
    print(f"rank      : {report.rank}")
    print(f"dim Y     : {report.dim_Y}   (algebraic solutions)")
    print(f"dim R     : {report.dim_R}   (root-sum relations)")
    print(f"dim S     : {report.dim_S}   (logarithmic solutions)")
    print(f"B'  ({report.card_Bprime}): " + " ".join(_fmt_vec(i) for i in bprime))
    print(f"B'' ({len(missing)}): " +
          (" ".join(_fmt_vec(i) for i in missing) if missing else "-"))
    print(f"Gamma ({len(gamma)}): " + " ".join(_fmt_vec(i) for i in gamma))
    return 0


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _render_op(op: DiffOperator) -> str:
    return op.render_ode() if op.n_vars == 1 else op.render()


def _op_rows(op: DiffOperator) -> _TermRows:
    return _TermRows(("x", "d"), [(a, b, str(c))
                                  for (a, b), c in op.sorted_terms()])


def cmd_operators(config: RunConfig, check_horn: bool = False) -> int:
    p = config.profile
    mellin = mellin_system(p)
    cleared = mellin_system_theta_form(p)
    horn_w, horn_x = horn_system(p)
    lattice = lattice_matrices(p)
    if config.as_json:
        payload = {
            "profile": p.to_json(),
            "mellin": [_op_rows(op) for op in mellin],
            "cleared": [_op_rows(op) for op in cleared],
            "horn_w": [_op_rows(op) for op in horn_w],
            "horn_x": [_op_rows(op) for op in horn_x],
            "matrices": {
                "A": [list(r) for r in lattice.A],
                "A_prime": [[str(v) for v in r] for r in lattice.A_prime],
                "B": [list(r) for r in lattice.B],
                "c": [str(v) for v in lattice.c],
                "beta": list(lattice.beta),
                "beta_prime": [str(v) for v in lattice.beta_prime],
                "horn_rank": lattice.horn_rank,
                "toric_pairs": [[list(u), list(v)]
                                for u, v in lattice.toric_pairs],
            },
        }
        if check_horn:
            payload["horn_mellin_multipliers"] = [
                str(horn_mellin_multiplier(p, j)) for j in range(p.n)]
        print(_dumps(payload))
        return 0
    print(f"profile: {p.equation_str()}")
    for j, op in enumerate(mellin):
        print(f"mellin[{j + 1}]  : {_render_op(op)}")
    for j, op in enumerate(cleared):
        print(f"cleared[{j + 1}] : {_render_op(op)}")
    for j, op in enumerate(horn_w):
        print(f"horn_w[{j + 1}]  : {op.render('w') if p.n > 1 else op.render_ode('w')}")
    for j, op in enumerate(horn_x):
        print(f"horn_x[{j + 1}]  : {_render_op(op)}")
    print("A       : " + "; ".join(_fmt_vec(r) for r in lattice.A))
    print("A'      : " + "; ".join(_fmt_vec(r) for r in lattice.A_prime))
    print("B       : " + "; ".join(_fmt_vec(r) for r in lattice.B))
    print(f"c       : {_fmt_vec(lattice.c)}")
    print(f"beta    : {_fmt_vec(lattice.beta)}   beta' : {_fmt_vec(lattice.beta_prime)}")
    print("toric   : " + "; ".join(f"D^{_fmt_vec(u)} - D^{_fmt_vec(v)}"
                                   for u, v in lattice.toric_pairs))
    if check_horn:
        ok = True
        for j in range(p.n):
            mult = horn_mellin_multiplier(p, j)
            same = horn_x[j].scale(mult) == cleared[j]
            ok = ok and same
            print(f"horn->mellin[{j + 1}]: multiplier {mult} "
                  f"{'OK' if same else 'MISMATCH'}")
        if not ok:
            return 2
        print("horn->mellin identity: OK")
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def parse_basis(profile: ExponentProfile, text: str) -> tuple[int, ...]:
    """The initial exponent I of ``series --basis``: n comma-separated
    integers in 0..m-1."""
    m, n = profile.m, profile.n
    try:
        index = tuple(int(v) for v in text.split(","))
    except ValueError:
        index = ()
    if len(index) != n or not all(0 <= v < m for v in index):
        raise ProfileError(f"--basis needs n = {n} comma-separated integers "
                           f"in 0..m-1 = 0..{m - 1} for the profile "
                           f"{_profile_label(profile)}, got {text!r}")
    return index


def cmd_series(config: RunConfig, principal: bool, basis, show_roots: bool,
               generating_check: bool) -> int:
    """``basis`` is None or an index from :func:`parse_basis`.

    Root branch j is e^j y_pr(e^{j m_1} x_1, ..., e^{j m_n} x_n) over
    Q[Z/m]: its coefficient at x^s is y_s e^{j k_s}, k_s = 1 + <M, s>, so
    every branch is written from the sorted rows of y_pr.
    """
    p, order = config.profile, config.order
    if not (principal or basis is not None or show_roots):
        raise ProfileError("nothing selected: use --principal, --basis or --roots")
    ypr = principal_series(p, order) if principal or show_roots else None
    chosen = [("principal", ypr)] if principal else []
    if basis is not None:
        chosen.append((f"basis{_fmt_vec(basis)}",
                       convenient_basis_series(p, basis, order)))
    gen_result = None
    if generating_check:  # branch 0 is y_pr in coordinate 0 of Q[Z/m]
        gen_result = is_generating(chosen[0][1] if chosen else ypr, p)
    chosen = [(name, [(s, str(c)) for s, c in f.sorted_items()])
              for name, f in chosen]
    if show_roots:
        roots = [(s, (1 + dot(p.m_list, s)) % p.m, str(c))
                 for s, c in ypr.sorted_items()]
    if config.as_json:
        series = [{"name": name, "n_vars": p.n, "order": order,
                   "ring": "rational", "terms": _TermRows(("exp",), rows)}
                  for name, rows in chosen]
        if show_roots:
            heads = {}
            series += [{"name": f"root[{j}]", "n_vars": p.n, "order": order,
                        "ring": "cyclotomic", "m": p.m,
                        "terms": _TermRows(("exp",), roots, p.m, j, heads)}
                       for j in range(p.m)]
        payload = {"profile": p.to_json(), "order": order, "series": series}
        if gen_result is not None:
            payload["generating"] = gen_result
        print(_dumps(payload))
        return 0
    names = var_names(p.n)
    out = []
    for name, rows in chosen:
        out.append(f"-- {name} (order {order}, ring rational)")
        out += [f"{text} * {monomial_text(s, names)}" for s, text in rows]
    if show_roots:
        m = p.m
        monos = [monomial_text(s, names) for s, _, _ in roots]
        pre = ["[" + "0, " * k for k in range(m)]
        post = [", 0" * (m - 1 - k) + "] * " for k in range(m)]
        for j in range(m):
            out.append(f"-- root[{j}] (order {order}, ring cyclotomic)")
            out += [pre[j * k % m] + text + post[j * k % m] + mono
                    for (_, k, text), mono in zip(roots, monos)]
    if gen_result is not None:
        out.append("GENERATING" if gen_result else "NOT GENERATING")
    print("\n".join(out))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _max_embedded(values, m: int) -> float:
    """The largest |embedding| of the Q[Z/m] elements that do not vanish
    exactly in Q(zeta_m), 0.0 for none."""
    zeta = roots_of_unity(m)
    return max((abs(sum(float(x) * zeta[k] for k, x in enumerate(c) if x))
                for c in values if not vanishes(c)), default=0.0)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def run_verification(config: RunConfig) -> list[Check]:
    """The full battery for one profile; every check is deterministic."""
    p = config.profile
    order = config.order
    checks: list[Check] = []

    def add(name, ok, detail):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    report = dims(p)
    gamma = coset_representatives(p)
    ok_gamma = len(gamma) == p.d * p.m ** (p.n - 1)
    add("dimension-table", report.dim_Y + report.dim_S == report.rank
        and ok_gamma,
        f"rank {report.rank}, dim Y {report.dim_Y}, dim R {report.dim_R}, "
        f"|Gamma| {len(gamma)}")
    if p.d == 1:
        counts = set(modular_counts(p))
        add("modular-count", counts == {p.m ** (p.n - 1)},
            f"every residue hit {p.m ** (p.n - 1)} times")

    mellin = mellin_system(p)
    box = index_box(p)
    initial_ok = True
    annihilated = True
    for idx in box:
        f = convenient_basis_series(p, idx, order)
        initial_ok = initial_ok and f.coefficient(idx) == 1
        for op in mellin:
            if not op.apply(f).is_zero():
                annihilated = False
    add("basis-annihilation", annihilated and initial_ok,
        f"{len(box)} series, exact rational annihilation at order {order}")

    ypr = principal_series(p, order)
    gen = is_generating(ypr, p)
    add("generating-principal", gen == (report.card_Bprime == report.rank),
        f"principal solution {'is' if gen else 'is not'} generating; "
        f"|B'| = {report.card_Bprime}")

    try:
        rot_rank = twist_rank(ypr, box, p.m)
        detail = (f"rank of {len(box)} rotations = {rot_rank} (expected "
                  f"|B'| = {report.card_Bprime})")
    except ArithmeticError as exc:  # exact and numeric ranks disagree
        rot_rank, detail = None, str(exc)
    add("rotation-rank", rot_rank == report.card_Bprime, detail)

    cleared = mellin_system_theta_form(p)
    _, horn_x = horn_system(p)
    horn_ok = True
    mults = []
    for j in range(p.n):
        mult = horn_mellin_multiplier(p, j)
        mults.append(str(mult))
        horn_ok = horn_ok and horn_x[j].scale(mult) == cleared[j]
    add("horn-mellin", horn_ok, "multipliers " + ", ".join(mults))

    lattice = lattice_matrices(p)
    add("lattice-kernel", lattice.horn_rank == report.rank,
        f"A*B = 0; rank bookkeeping {lattice.horn_rank}")

    if p.n == 1:
        lead = leading_coefficient(mellin[0])
        disc = discriminant_poly(p.m, p.m_list[0])
        ratio = poly_scale_ratio(lead, disc)
        if p.d == 1:
            add("discriminant-leading", ratio is not None,
                f"leading coefficient = {ratio} * discriminant")
        else:
            add("discriminant-leading", True,
                "skipped: coincidence holds only for d = 1 "
                f"(proportionality here: {ratio})")

    jet_order = min(order, 8)
    try:
        dev = roots_mod.scaled_root_max_deviation(p, jet_order)
        detail = f"max jet/rotation gap {dev:.3e} at order {jet_order}"
    except roots_mod.RootFindingError as exc:
        dev, detail = math.inf, f"Newton lift at order {jet_order}: {exc}"
    add("scaled-roots", dev < roots_mod.SUBSTITUTION_TOL, detail)

    base = tuple(0.2 * cmath.exp(0.7j * (j + 1)) for j in range(p.n))
    inst = roots_mod.EquationInstance(p, (0,) * p.n, base)
    vals = roots_mod.roots_at_point(inst, seed=config.seed)
    coeffs = inst.poly_coefficients()
    vieta = sum(vals) + coeffs[p.m - 1] / coeffs[p.m]
    add("point-roots", len(vals) == p.m and abs(vieta) < 1e-9,
        f"{len(vals)} distinct roots at a fixed base point; "
        f"degree-1 symmetric residual {abs(vieta):.3e}")

    total = roots_mod.root_sum(p, [1] + [0] * (len(gamma) - 1), order)
    if p.m_list[0] == p.m - 1:  # add x_1, e^0 in Q[Z/m]
        x1 = (1,) + (0,) * (p.n - 1)
        c = total.get(x1, (0,) * p.m)
        total[x1] = (c[0] + 1,) + c[1:]
    gap = _max_embedded(total.values(), p.m)
    add("jet-root-sum", gap == 0,
        f"sum of origin branches matches -[y^(m-1)] ({gap:.3e})")

    if p.d == 1:
        basis_r = relation_basis(p)
        worst = max((roots_mod.relation_check(p, vec, order)
                     for vec in basis_r), default=0.0)
        add("relation-residuals", worst == 0,
            f"{len(basis_r)} basis vectors, worst residual {worst:.3e}")

        yjets = [jet for block in roots_mod.coset_equation_jets(p, order)
                 for jet in block]
        yrank = independence_rank(yjets)
        add("algebraic-span", yrank == report.dim_Y,
            f"rank of the {len(yjets)} coset-equation jets = {yrank} "
            f"(dim Y = {report.dim_Y})")

        chis = []
        if basis_r:
            try:  # a nonzero relation residual or a broken congruence
                sols = [roots_mod.log_solution(p, vec, order)
                        for vec in basis_r]
                chis = [sol.chi for sol in sols]
                worst_chi = max(roots_mod.log_residual(p, sol) for sol in sols)
                detail = (f"{len(chis)} logarithmic solutions, worst exact "
                          f"residual {worst_chi:.3e}")
            except (ArithmeticError, ValueError) as exc:
                worst_chi, detail = math.inf, str(exc)
            add("log-solutions", worst_chi == 0, detail)
        full_rank = independence_rank(yjets + chis)
        add("direct-sum", full_rank == report.rank,
            f"rank(Y-jets + logs) = {full_rank} (expected {report.rank})")
    elif p.n == 1:
        try:
            w = roots_mod.invariant_subspace_witness(p.m, p.m_list[0], order)
            blocks_ok = (all(r == p.m // p.d for r in w.block_ranks)
                         and w.joint_rank == p.m and w.max_residual == 0)
            detail = (f"block ranks {list(w.block_ranks)}, joint "
                      f"{w.joint_rank}, residual {w.max_residual:.3e}, "
                      f"original roots span {w.original_root_rank}")
        except ArithmeticError as exc:
            blocks_ok, detail = False, str(exc)
        add("invariant-subspaces", blocks_ok, detail)

    if p.n == 1 and p.m_list[0] == p.m - 1:
        try:
            fac = theta_factorization(p.m)
            add("theta-factorization", True,
                f"x^{fac.exponent} multiplier resolved "
                f"(closed form uses x^{p.m})")
        except ArithmeticError as exc:  # pragma: no cover - hard failure path
            add("theta-factorization", False, str(exc))
    if p.n == 1 and p.m_list[0] == 1:
        try:
            derivative_factorization(p.m)
            add("derivative-factorization", True,
                "left factor D splits off exactly")
        except ArithmeticError as exc:  # pragma: no cover - hard failure path
            add("derivative-factorization", False, str(exc))
    return checks


def check_verify_order(profile: ExponentProfile, order: int) -> None:
    """Reject an order below max(m + 2, n(m - 1)), or any order when that
    floor exceeds MAX_ORDER.

    m + 2 keeps the images of the order-m Mellin operators reliable past
    degree 1, and the basis and the generating test need the whole box B,
    whose corner has degree n(m - 1).
    """
    m, n = profile.m, profile.n
    floor = max(m + 2, n * (m - 1))
    need = (f"verify needs --order at least max(m + 2, n(m - 1)) = {floor} "
            f"for the profile {_profile_label(profile)}")
    if floor > MAX_ORDER:
        raise ProfileError(f"{need}, above the cap MAX_ORDER = {MAX_ORDER}: "
                           "this profile cannot be verified")
    if order < floor:
        raise ProfileError(f"{need}, got {order}")


def cmd_verify(config: RunConfig) -> int:
    checks = run_verification(config)
    ok_all = all(c.ok for c in checks)
    if config.as_json:
        payload = {
            "profile": config.profile.to_json(),
            "order": config.order,
            "seed": config.seed,
            "tolerances": {
                "substitution": roots_mod.SUBSTITUTION_TOL,
                "rank": roots_mod.RANK_TOL,
            },
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in checks],
            "equations": [
                roots_mod.equation_report(config.profile, rep, config.order,
                                          config.seed)
                for rep in coset_representatives(config.profile)],
            "ok": ok_all,
        }
        print(_dumps(payload))
    else:
        print(f"profile: {config.profile.equation_str()}   "
              f"(order {config.order}, seed {config.seed})")
        for c in checks:
            print(f"{'ok  ' if c.ok else 'FAIL'} {c.name:24s} {c.detail}")
        print(f"{'all checks passed' if ok_all else 'VERIFICATION FAILED'} "
              f"({sum(c.ok for c in checks)}/{len(checks)})")
    return 0 if ok_all else 2


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("m", type=int, help="leading exponent m")
    sub.add_argument("m_list", type=int, nargs="+", metavar="mj",
                     help="inner exponents m_1 > ... > m_n")
    sub.add_argument("--order", type=int, default=DEFAULT_ORDER,
                     help="series truncation order (default 12)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for root-finder perturbations (default 0)")
    sub.add_argument("--json", action="store_true", dest="as_json",
                     help="emit JSON (schema in docs/schema.md)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that."""
    parser = _Parser(prog="mellinsys",
                     description="Mellin systems of sparse algebraic "
                                 "equations: bases, operators, verification")
    subs = parser.add_subparsers(dest="command", required=True)

    p_dims = subs.add_parser("dims", parents=[], help="dimension table and index sets")
    _add_common(p_dims)

    p_ops = subs.add_parser("operators", help="Mellin/Horn operators and matrices")
    _add_common(p_ops)
    p_ops.add_argument("--check-horn", action="store_true",
                       help="assert the Horn -> Mellin identity")

    p_ser = subs.add_parser("series", help="solution series expansions")
    _add_common(p_ser)
    p_ser.add_argument("--principal", action="store_true",
                       help="print the principal solution")
    p_ser.add_argument("--basis", metavar="I",
                       help="comma-separated initial exponent, e.g. 0,2")
    p_ser.add_argument("--roots", action="store_true",
                       help="print the m scaled root branches")
    p_ser.add_argument("--generating-check", action="store_true",
                       help="test whether the first selected series is generating")

    p_ver = subs.add_parser("verify", help="run the full verification battery")
    _add_common(p_ver)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        profile = make_profile(ns.m, ns.m_list)
        if ns.command == "verify":
            check_verify_order(profile, ns.order)
        if ns.order < 0:
            raise ProfileError(f"--order {ns.order} is negative: the "
                               "truncation order must be at least 0")
        if ns.order > MAX_ORDER:
            raise ProfileError(f"--order {ns.order} exceeds the cap "
                               f"MAX_ORDER = {MAX_ORDER}")
        config = RunConfig(profile=profile, order=ns.order, seed=ns.seed,
                           as_json=ns.as_json)
        if ns.command == "dims":
            return cmd_dims(config)
        if ns.command == "operators":
            return cmd_operators(config, check_horn=ns.check_horn)
        if ns.command == "series":
            basis = None if ns.basis is None else parse_basis(profile, ns.basis)
            if basis is not None and sum(basis) > ns.order:
                raise ProfileError(f"--basis {ns.basis} needs --order at "
                                   f"least |I| = {sum(basis)}, got {ns.order}")
            return cmd_series(config, principal=ns.principal, basis=basis,
                              show_roots=ns.roots,
                              generating_check=ns.generating_check)
        if ns.command == "verify":
            return cmd_verify(config)
        parser.error(f"unknown command {ns.command}")
    except (ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
