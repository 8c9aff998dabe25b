"""The analytic gate: the package against a frozen 40-digit reference.

Every row of ``oracle_values.json`` is one analytic quantity at one
point, with the value that ``make_oracle_values.py`` computed from
``mp_oracle`` and the relative tolerance the package must meet there.
A row that records a defect runs as a strict xfail, so this one table
says which analytic values are wrong and by how much; mending a defect
turns its row into an unexpected pass until the row's defect is removed.
The last two tests keep the table honest without its 40-digit cost:
the oracle's two routes still agree, and cheap rows still come out of
the script as stored.
"""

import mp_oracle
import pytest

import make_oracle_values as table
from nomagsc import capacity, distributions, numerics

# the package function of each quantity, called with the row's arguments
PACKAGE = {
    "ec_strong": capacity.ec_strong,
    "ec_weak": capacity.ec_weak,
    "ec_oma": capacity.ec_oma,
    "ergodic_strong": lambda pair, split, snr: capacity.ergodic_rate(pair, split, snr).e_strong,
    "ergodic_weak": lambda pair, split, snr: capacity.ergodic_rate(pair, split, snr).e_weak,
    "gsc_mellin": distributions.gsc_mellin,
    "gsc_cdf": distributions.gsc_cdf,
    "gsc_pdf": distributions.gsc_pdf,
    # the general composition of the two laws, whatever the pair
    "min_expectation": lambda pair, b, p: numerics.expectation(
        lambda values: lambda x: (1.0 + b * x) ** -p * values[x], distributions.min_pdf_general, pair
    ).value,
}

ROWS = {row["id"]: row for row in table.load()}


def _param(row):
    # a defect shows as a value off the oracle or as a failed quadrature
    raises = (AssertionError, numerics.IntegrationError)
    marks = [pytest.mark.xfail(strict=True, raises=raises, reason=row["defect"])] if row["defect"] else []
    return pytest.param(row, id=row["id"], marks=marks)


@pytest.mark.parametrize("row", [_param(row) for row in ROWS.values()])
def test_matches_oracle(row):
    value = PACKAGE[row["quantity"]](**table.arguments(row))
    reference = float(row["value"])
    assert abs(value - reference) <= row["rel_tol"] * abs(reference), (value, reference)


# the product against the series twice (one of them the theta = 1e4 peak,
# 1/(a nu) wide, that fixed breakpoints miss) and the series against the
# closed form once.  At 8 digits (18 working) the routes still agree to
# about 1e-16, and each row takes a fraction of a second.
CROSS_ROUTE_ROWS = (
    "ec_strong-N4n4w1+N4n4w0.1-a0.24-th10000-40dB",
    "gsc_mellin-N4n2w1-s-0.7",
    "ec_weak-N4n4w1+N4n4w0.1-a0.24-th1-10dB",
)


@pytest.mark.parametrize("row_id", CROSS_ROUTE_ROWS)
def test_routes_agree(row_id):
    row = ROWS[row_id]
    with mp_oracle.digits(8):
        first, second = (table.compute(row, route) for route in row["routes"])
    assert abs(first / second - 1) <= table.AGREE
    assert abs(first / float(row["value"]) - 1) <= table.AGREE


# rows whose 40-digit value takes milliseconds: series sums at the
# precision their cancellation needs (test_routes_agree already compares
# three quadrature rows with their stored values)
CHEAP_ROWS = ("gsc_cdf-N15n14w1-x3", "gsc_pdf-N16n15w1-x0.5")


@pytest.mark.parametrize("row_id", CHEAP_ROWS)
def test_row_is_the_scripts_output(row_id):
    row = ROWS[row_id]
    assert table.drift(row, table.compute(row)) <= table.DRIFT
