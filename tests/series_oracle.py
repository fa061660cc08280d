"""Reference kernels for series and their documented forms.

``naive_product`` walks every pair of terms in dict order and skips, one
pair at a time, those past the common order; every key gathers its
products in the order of the left operand.  The library has no series
product (its exact series are closed forms, and its lift multiplies dense
arrays), so this is the product every oracle here takes.

``inverse`` and ``log`` are the series reciprocal and logarithm, built
from products; the library needs neither, since it takes y_pr log y_pr in
closed form, and they serve as its oracle.  ``unit_inverse`` inverts the
constant term: a rational, a complex number, or a monomial unit q e^k of
Q[Z/m], the units that series carry.

``series_to_json`` is the documented JSON form of a series, with one
{"exp", "coeff"} dict per term; ``mellinsys series --json`` writes the
same text from term rows without building it.  ``coeff_json`` and
``json_fields`` are its per-ring parts, and ``series_text`` is the text
form, one ``coeff * monomial`` line per term with the ring's coefficient
text.

Each kernel takes a library series (rational) or a ``RingSeries`` and
returns a ``RingSeries`` (``ring_oracle``).
"""

from fractions import Fraction

from mellinsys.profiles import var_names
from mellinsys.series import exponents_up_to, monomial_text
from ring_oracle import COMPLEX, RATIONAL, RingSeries, ring_series


def naive_product(a, b):
    """a * b over all term pairs, without sorting or early exit."""
    a, b = ring_series(a), ring_series(b)
    ring, order = a.ring, min(a.order, b.order)
    out = {}
    for s, c in a.terms.items():
        for t, e in b.terms.items():
            if sum(s) + sum(t) > order:
                continue
            key = tuple(u + v for u, v in zip(s, t))
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, e))
    return RingSeries(ring, a.n_vars, order, out)


def unit_inverse(ring, c):
    """1/c in the ring; in Q[Z/m], only a monomial unit q e^k is inverted."""
    if ring == RATIONAL:
        return Fraction(1) / c
    if ring == COMPLEX:
        return 1.0 / c
    support = [k for k, x in enumerate(c) if x]
    if not support:
        raise ZeroDivisionError("inverse of zero")
    if len(support) > 1:
        raise ValueError("only monomial units q e^k are inverted")
    k = support[0]
    return ring.monomial(Fraction(1) / c[k], -k)


def inverse(f):
    """Reciprocal; the constant term must be a unit the ring inverts.

    Filled by increasing total degree: c0 g_e = -sum_{u != 0} f_u g_{e-u}.
    """
    f = ring_series(f)
    ring, n = f.ring, f.n_vars
    c0 = f.coefficient((0,) * n)
    if ring.is_zero(c0):
        raise ZeroDivisionError("series has zero constant term")
    inv0 = unit_inverse(ring, c0)
    rest = [(s, c, sum(s)) for s, c in f.terms.items() if sum(s) > 0]
    out = {(0,) * n: inv0}
    for e in sorted(exponents_up_to(n, f.order), key=sum)[1:]:
        acc = ring.zero
        for u, fu, du in rest:
            if du <= sum(e) and all(ui <= ei for ui, ei in zip(u, e)):
                g = out.get(tuple(a - b for a, b in zip(e, u)))
                if g is not None:
                    acc = ring.add(acc, ring.mul(fu, g))
        if not ring.is_zero(acc):
            out[e] = ring.mul(ring.neg(acc), inv0)
    return RingSeries(ring, n, f.order, out)


def log(f):
    """Series logarithm of a series with constant term exactly 1.

    The Euler operator E = sum_j x_j d/dx_j multiplies the term at s by
    |s|, and E(log f) = E(f) / f, so one inverse and one product give
    every coefficient (Brent-Kung, J. ACM 25, 1978).
    """
    f = ring_series(f)
    ring, n = f.ring, f.n_vars
    c0 = f.coefficient((0,) * n)
    if ring.is_zero(c0):
        raise ZeroDivisionError("logarithm of a series with zero constant term")
    if c0 != ring.one:
        raise ValueError("series logarithm needs constant term 1")
    euler = RingSeries(ring, n, f.order,
                       {s: ring.scale_rational(c, sum(s))
                        for s, c in f.terms.items()})
    quotient = naive_product(euler, inverse(f))
    return RingSeries(ring, n, f.order,
                      {s: ring.scale_rational(c, Fraction(1, sum(s)))
                       for s, c in quotient.terms.items()})


def coeff_json(ring, c):
    """A rational as its string and a Q[Z/m] element as its coordinate
    strings, a zero one as "0"."""
    if ring == RATIONAL:
        return str(c)
    return [str(q) if q else "0" for q in c]


def json_fields(ring) -> dict:
    """The ring fields of a series object: its name, and m for Q[Z/m]."""
    if ring == RATIONAL:
        return {"ring": ring.name}
    return {"ring": ring.name, "m": ring.m}


def series_to_json(series):
    """The docs/schema.md series object, terms sorted by degree then lex."""
    series = ring_series(series)
    ring = series.ring
    return {
        "n_vars": series.n_vars,
        "order": series.order,
        **json_fields(ring),
        "terms": [{"exp": list(exp), "coeff": coeff_json(ring, c)}
                  for exp, c in series.sorted_items()],
    }


def series_text(series) -> str:
    """The ``mellinsys series`` text of a series, sorted by degree then lex."""
    series = ring_series(series)
    names, text = var_names(series.n_vars), series.ring.coeff_text
    return "\n".join(f"{text(c)} * {monomial_text(s, names)}"
                     for s, c in series.sorted_items()) or "0"
