"""Reference kernel for ``TruncatedSeries.__mul__``.

``naive_product`` walks every pair of terms in dict order and skips, one
pair at a time, those past the common order.  Every key gathers its
products in the order of the left operand, as the library kernel does, so
the two agree bit for bit over every ring.

``series_to_json`` is the documented JSON form of a series, with one
{"exp", "coeff"} dict per term; ``mellinsys series --json`` writes the
same text from term rows without building it.
"""

from mellinsys.series import TruncatedSeries


def naive_product(a, b):
    """a * b over all term pairs, without sorting or early exit."""
    ring, order = a.ring, min(a.order, b.order)
    out = {}
    for s, c in a.terms.items():
        for t, e in b.terms.items():
            if sum(s) + sum(t) > order:
                continue
            key = tuple(u + v for u, v in zip(s, t))
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, e))
    return TruncatedSeries(ring, a.n_vars, order, out)


def series_to_json(series):
    """The docs/schema.md series object, terms sorted by degree then lex."""
    ring = series.ring
    return {
        "n_vars": series.n_vars,
        "order": series.order,
        **ring.json_fields(),
        "terms": [{"exp": list(exp), "coeff": ring.coeff_json(c)}
                  for exp, c in series.sorted_items()],
    }
