"""Write or check ``tests/oracle_values.json``, the analytic gate's table.

Each row is one analytic quantity of the package at one point: its
inputs, the 40-digit value of ``mp_oracle``, the relative tolerance the
package must meet there, and, where the package is known to miss it,
the defect (``tests/test_oracle_gate.py`` runs such a row as a strict
xfail).  Every route of ``mp_oracle`` that the row lists computes it;
the routes must agree to AGREE relative, and the first one's value is
stored.  A rewrite keeps the stored value of every row whose quantity,
inputs and routes are unchanged and computes only the others, so that
adding a row or mending a defect (deleting its entry from DEFECTS) is
cheap.

    PYTHONPATH=src python tests/make_oracle_values.py           # rewrite the table
    PYTHONPATH=src python tests/make_oracle_values.py --check   # recompute every row

``--check`` exits with status 1 if a stored value has drifted by more
than DRIFT relative, if the routes of a row disagree, or if the table's
rows are not the ones defined here.
"""

import argparse
import json
import pathlib
import sys
import time

import mpmath as mp

import mp_oracle
from nomagsc.capacity import PowerSplit, QosProfile, SnrPoint
from nomagsc.distributions import GscSpec, UserPairSpec

PATH = pathlib.Path(__file__).with_name("oracle_values.json")
# the stored values may move by this much relative between two runs
DRIFT = 1e-15
# two routes to one value must agree to this, relative
AGREE = 1e-12

# the oracle function of each quantity, and the arguments it takes
QUANTITIES = {
    "ec_strong": (mp_oracle.ec_strong, ("pair", "split", "qos", "snr")),
    "ec_weak": (mp_oracle.ec_weak, ("pair", "split", "qos", "snr")),
    "ec_oma": (mp_oracle.ec_oma, ("spec", "qos", "snr")),
    "ergodic_strong": (mp_oracle.ergodic_strong, ("pair", "split", "snr")),
    "ergodic_weak": (mp_oracle.ergodic_weak, ("pair", "split", "snr")),
    "gsc_mellin": (mp_oracle.mellin, ("spec", "s")),
    "gsc_cdf": (lambda spec, x, route: mp_oracle.distribution(spec, x), ("spec", "x")),
    "gsc_pdf": (lambda spec, x, route: mp_oracle.density(spec, x), ("spec", "x")),
    "min_expectation": (mp_oracle.min_expectation, ("pair", "b", "p")),
}


def arguments(row) -> dict:
    """The package's argument objects for a row's inputs."""
    inputs = row["inputs"]
    builders = {
        "pair": lambda: UserPairSpec(GscSpec(*inputs["strong"]), GscSpec(*inputs["weak"])),
        "spec": lambda: GscSpec(*inputs["spec"]),
        "split": lambda: PowerSplit(inputs["a_s"]),
        "qos": lambda: QosProfile(inputs["theta"]),
        "snr": lambda: SnrPoint.from_db(inputs["snr_db"]),
    }
    names = QUANTITIES[row["quantity"]][1]
    return {name: builders[name]() if name in builders else inputs[name] for name in names}


def compute(row, route=None):
    """The row's oracle value by ``route`` (its first route by default)."""
    oracle = QUANTITIES[row["quantity"]][0]
    return oracle(**arguments(row), route=route or row["routes"][0])


def drift(row, value) -> float:
    """Relative distance of ``value`` from the row's stored value."""
    with mp.workdps(mp_oracle.DPS + mp_oracle.GUARD):
        return float(abs(value / mp.mpf(row["value"]) - 1))


def load() -> list:
    return json.loads(PATH.read_text())["rows"]


# a stored value still holds when these are unchanged
_INPUTS = ("quantity", "inputs", "routes")


def _stored_values() -> dict:
    """{row id: (its quantity, inputs and routes, its stored value)} of
    the table's rows."""
    if not PATH.exists():
        return {}
    return {row["id"]: (tuple(row[key] for key in _INPUTS), row["value"]) for row in load()}


# --- the rows -----------------------------------------------------------

A_S = 0.24
# the corners every quantity is checked at: (theta, rho in dB)
CORNERS = ((2.0, 40), (1e4, 40), (1.0, 3000))
# (omega, rho in dB) with omega * rho = 10, as at omega = 1 and 10 dB
OMEGA_SCALES = ((1e-9, 100), (1e-4, 50), (1e4, -30), (1e6, -50), (1e9, -80))

LOW_SNR_DB = (-100, -140)
SMALL_THETA = 1e-9
# (strong receiver, weak receiver, theta, rho in dB)
UNEQUAL_PAIRS = (([3, 1, 2.0], [14, 7, 0.5], 0.5, 30), ([16, 2, 1.0], [5, 5, 0.3], 0.5, 10))

_PREFIX = {"a_s": "a", "theta": "th"}


def _label(inputs):
    parts = []
    for key, value in inputs.items():
        if key in ("strong", "weak", "spec"):
            parts.append("N{}n{}w{:g}".format(*value))
        elif key == "snr_db":
            parts.append(f"{value:g}dB")
        else:
            parts.append(f"{_PREFIX.get(key, key)}{value:g}")
    if "weak" in inputs:
        parts[:2] = [f"{parts[0]}+{parts[1]}"]
    return "-".join(parts)


def _row(quantity, inputs, routes, rel_tol=1e-9):
    row_id = f"{quantity}-{_label(inputs)}"
    return {
        "id": row_id,
        "quantity": quantity,
        "inputs": inputs,
        "routes": list(routes),
        "rel_tol": rel_tol,
        "defect": DEFECTS.get(row_id),
    }


def _pair(N, n, omega=1.0, **point):
    """A pair of (N, n) receivers, omega and omega/10, at ``point``."""
    return {"strong": [N, n, omega], "weak": [N, n, omega / 10], **point}


def _ec(N, n, theta, snr_db, omega=1.0):
    return _pair(N, n, omega, a_s=A_S, theta=theta, snr_db=snr_db)


def _oma(N, n, omega, theta, snr_db):
    return {"spec": [N, n, omega], "theta": theta, "snr_db": snr_db}


def _one_receiver_routes(N, n, snr_db):
    # at 3000 dB the series would have to cancel (N - 1) * 300 digits near
    # x = 1/(a rho), so only the product reaches those rows
    return ("product",) if snr_db >= 1000 and n < N else ("product", "series")


def _weak_routes(N, n):
    return ("series", "closed") if n in (1, N) else ("series",)


# The package's known misses, one reason per row, each with the package's
# value against the oracle's as measured.  The gate runs these rows as
# strict xfails; mending a defect means deleting its entries here and
# rewriting the table.
HIGH_SNR = "high-SNR quadrature: the inner expectation is tiny, so numerics.ABS_TOL = 1e-12 ends QUADPACK early"
UNDERFLOW = "underflow: the inner EC expectation underflows to 0.0 and IntegrationError is raised"
SCALE = "omega far from 1: the quadrature, on the scale x ~ 1, misses a law whose mass lies at x ~ omega"
SMALL_EXPONENT = ("nu * E[ln(1 + SINR)] is small: an EC divides the rounding of E[(1 + SINR)^-nu], "
                  "near 1, by it, and a rate's log2(1 + SINR) rounds SINR away")
DEFECTS = {
    "ec_strong-N4n1w1+N4n1w0.1-a0.24-th2-40dB": f"{HIGH_SNR}: 11.054105578 against 11.054106590, 9.2e-8",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th2-40dB": f"{HIGH_SNR}: 11.773816203 against 11.773815238, 8.2e-8",
    "ec_strong-N4n4w1+N4n4w0.1-a0.24-th2-40dB": f"{HIGH_SNR} (2.8e-11, one subdivision): "
    "12.155248544 against 12.155368831, 9.9e-6",
    "ec_oma-N4n4w1-th1-3000dB": f"{HIGH_SNR}: 499.11585749 against 499.11588527, 5.6e-8",
    "ec_strong-N4n1w1+N4n1w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0066261562",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0068341004",
    "ec_strong-N4n4w1+N4n4w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0069439616",
    "ec_strong-N4n1w1+N4n1w0.1-a0.24-th1-3000dB": f"{UNDERFLOW}; true 994.93922761",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th1-3000dB": f"{UNDERFLOW}; true 995.62059449",
    "ec_strong-N4n4w1+N4n4w0.1-a0.24-th1-3000dB": f"{UNDERFLOW}; true 995.98551919",
    "ec_weak-N4n1w1+N4n1w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0061661403",
    "ec_weak-N4n2w1+N4n2w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0063740844",
    "ec_weak-N4n4w1+N4n4w0.1-a0.24-th10000-40dB": f"{UNDERFLOW}; true 0.0064839456",
    "ec_oma-N4n4w1-th10000-40dB": f"{UNDERFLOW}; true 0.0072374799",
    "ec_oma-N4n4w1e-09-th1-100dB": f"{SCALE}; {UNDERFLOW}; true 2.5179064329",
    "ec_strong-N4n2w1e-09+N4n2w1e-10-a0.24-th1-100dB": f"{SCALE}; {UNDERFLOW}; true 2.7274275858",
    "ec_weak-N4n2w1e-09+N4n2w1e-10-a0.24-th1-100dB": f"{SCALE}; {UNDERFLOW}; true 1.1375800564",
    "ergodic_strong-N4n2w1e-09+N4n2w1e-10-a0.24-100dB": f"{SCALE}: 0.0 against 2.9566877593, silently",
    "ec_weak-N4n2w0.0001+N4n2w1e-05-a0.24-th1-50dB": f"{SCALE}; {UNDERFLOW}; true 1.1375800564",
    "ec_oma-N4n4w10000-th1--30dB": f"{SCALE}; IntegrationError: error 0.037 on 0.081 after 16 subdivisions",
    "ec_strong-N4n2w10000+N4n2w1000-a0.24-th1--30dB": f"{SCALE}; IntegrationError: error 0.063 on 0.065 "
    "after 13 subdivisions",
    "ergodic_strong-N4n2w10000+N4n2w1000-a0.24--30dB": f"{SCALE}; IntegrationError: error 0.94 on 2.98 "
    "after 14 subdivisions",
    "ec_oma-N4n4w1e+06-th1--50dB": f"{SCALE}: 31.481322677 against 2.5179064329, silently",
    "ec_strong-N4n2w1e+06+N4n2w100000-a0.24-th1--50dB": f"{SCALE}: 30.381185304 against 2.7274275858, silently",
    "ec_weak-N4n2w1e+06+N4n2w100000-a0.24-th1--50dB": f"{SCALE}; IntegrationError: inner EC expectation "
    "out of range: -4.6e-14; true 1.1375800564",
    "ergodic_strong-N4n2w1e+06+N4n2w100000-a0.24--50dB": f"{SCALE}: 1.0e-16 against 2.9566877593, silently",
    "ec_oma-N4n4w1e+09-th1--80dB": f"{SCALE}: 59.108519863 against 2.5179064329, silently",
    "ec_strong-N4n2w1e+09+N4n2w1e+08-a0.24-th1--80dB": f"{SCALE}; IntegrationError: inner EC expectation "
    "out of range: -3.7e-21; true 2.7274275858",
    "ec_weak-N4n2w1e+09+N4n2w1e+08-a0.24-th1--80dB": f"{SCALE}: 48.799474913 against 1.1375800564, silently",
    "ergodic_strong-N4n2w1e+09+N4n2w1e+08-a0.24--80dB": f"{SCALE}: -5.8e-27 against 2.9566877593, silently",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th1--100dB": f"{SMALL_EXPONENT}: "
    "1.0964484876e-10 against 1.0964482310e-10, 2.3e-7",
    "ec_weak-N4n2w1+N4n2w0.1-a0.24-th1--100dB": f"{SMALL_EXPONENT}: "
    "3.4686475914e-11 against 3.4686413346e-11, 1.8e-6",
    "ec_oma-N4n2w1-th1--100dB": f"{SMALL_EXPONENT}: "
    "2.2842672201e-10 against 2.2842671475e-10, 3.2e-8",
    "ergodic_strong-N4n2w1+N4n2w0.1-a0.24--100dB": f"{SMALL_EXPONENT}: "
    "1.0964480739e-10 against 1.0964482310e-10, 1.4e-7",
    "ergodic_weak-N4n2w1+N4n2w0.1-a0.24--100dB": f"{SMALL_EXPONENT}: "
    "3.4686413990e-11 against 3.4686413346e-11, 1.9e-8",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th1--140dB": f"{SMALL_EXPONENT}: "
    "1.0991207944e-14 against 1.0964482311e-14, 2.4e-3",
    "ec_weak-N4n2w1+N4n2w0.1-a0.24-th1--140dB": f"{SMALL_EXPONENT}: "
    "3.5527136788e-15 against 3.4686413347e-15, 2.4e-2",
    "ec_oma-N4n2w1-th1--140dB": f"{SMALL_EXPONENT}: "
    "2.2648549702e-14 against 2.2842671481e-14, 8.5e-3",
    "ergodic_strong-N4n2w1+N4n2w0.1-a0.24--140dB": f"{SMALL_EXPONENT}: "
    "1.0944540315e-14 against 1.0964482311e-14, 1.8e-3",
    "ergodic_weak-N4n2w1+N4n2w0.1-a0.24--140dB": f"{SMALL_EXPONENT}: "
    "3.4089440167e-15 against 3.4686413347e-15, 1.7e-2",
    "ec_strong-N4n2w1+N4n2w0.1-a0.24-th1e-09-10dB": f"{SMALL_EXPONENT}: "
    "2.9566877879 against 2.9566877591, 9.7e-9",
    "ec_weak-N4n2w1+N4n2w0.1-a0.24-th1e-09-10dB": f"{SMALL_EXPONENT}: "
    "1.1706524645 against 1.1706524087, 4.8e-8",
}


def definitions() -> list:
    """Every row of the table, without its value."""
    both = ("product", "series")
    rows = []
    # the strong user's EC
    for n in (1, 2, 3, 4):
        rows.append(_row("ec_strong", _ec(4, n, 1.0, 10), both))
    for n in (1, 2, 4):
        for theta, db in CORNERS:
            rows.append(_row("ec_strong", _ec(4, n, theta, db), _one_receiver_routes(4, n, db)))
    for n in (6, 9):
        rows.append(_row("ec_strong", _ec(12, n, 1.0, 10), both))
    # the weak user's EC over the SC, general and MRC laws of the minimum
    for n in (1, 2, 4):
        for theta, db in ((1.0, 10),) + CORNERS:
            rows.append(_row("ec_weak", _ec(4, n, theta, db), _weak_routes(4, n)))
    for n in (1, 6, 9):
        rows.append(_row("ec_weak", _ec(12, n, 1.0, 10), _weak_routes(12, n)))
    rows.append(_row("ec_weak", _pair(12, 1, a_s=0.1, theta=2.0, snr_db=20), _weak_routes(12, 1)))
    # OMA
    for n, omega in ((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (2, 0.1)):
        rows.append(_row("ec_oma", _oma(4, n, omega, 1.0, 10), both))
    for theta, db in CORNERS:
        rows.append(_row("ec_oma", _oma(4, 4, 1.0, theta, db), both))
    for n in (6, 9):
        rows.append(_row("ec_oma", _oma(12, n, 1.0, 1.0, 10), both))
    # the ergodic rates
    points = [(4, n, db) for n in (1, 2, 4) for db in (10, 40, 3000)]
    points += [(12, n, 10) for n in (6, 9)] + [(12, 1, db) for db in (0, 20, 40)]
    for N, n, db in points:
        inputs = _pair(N, n, a_s=A_S, snr_db=db)
        rows.append(_row("ergodic_strong", inputs, _one_receiver_routes(N, n, db)))
        rows.append(_row("ergodic_weak", inputs, _weak_routes(N, n)))
    # the mean branch power far from 1: each row scales a theta = 1, 10 dB
    # row above by omega and its rho by 1/omega, so that rho * omega, and
    # with it the value, is unchanged
    for omega, db in OMEGA_SCALES:
        rows.append(_row("ec_oma", _oma(4, 4, omega, 1.0, db), both))
        rows.append(_row("ec_strong", _ec(4, 2, 1.0, db, omega), both))
        rows.append(_row("ec_weak", _ec(4, 2, 1.0, db, omega), _weak_routes(4, 2)))
        rows.append(_row("ergodic_strong", _pair(4, 2, omega, a_s=A_S, snr_db=db), both))
    # where nu * E[ln(1 + SINR)] is small: at low SNR, and just above the
    # ergodic cutoff, where E[(1 + SINR)^-nu] is within 1e-9 of 1
    for db in LOW_SNR_DB:
        rows.append(_row("ec_strong", _ec(4, 2, 1.0, db), both))
        rows.append(_row("ec_weak", _ec(4, 2, 1.0, db), _weak_routes(4, 2)))
        rows.append(_row("ec_oma", _oma(4, 2, 1.0, 1.0, db), both))
        rows.append(_row("ergodic_strong", _pair(4, 2, a_s=A_S, snr_db=db), both))
        rows.append(_row("ergodic_weak", _pair(4, 2, a_s=A_S, snr_db=db), _weak_routes(4, 2)))
    for quantity, routes in (("ec_strong", both), ("ec_weak", _weak_routes(4, 2))):
        rows.append(_row(quantity, _ec(4, 2, SMALL_THETA, 10), routes))
    # the weak user of a pair whose receivers differ in (N, n)
    for strong, weak, theta, db in UNEQUAL_PAIRS:
        point = {"strong": strong, "weak": weak, "a_s": A_S}
        rows.append(_row("ec_weak", {**point, "theta": theta, "snr_db": db}, ("series",)))
        rows.append(_row("ergodic_weak", {**point, "snr_db": db}, ("series",)))
    # the Mellin transform at negative order
    for n in (1, 2, 3, 4):
        for s in (-0.3, -0.7):
            rows.append(_row("gsc_mellin", {"spec": [4, n, 1.0], "s": s}, both, rel_tol=1e-12))
    for n in (6, 9):
        rows.append(_row("gsc_mellin", {"spec": [12, n, 1.0], "s": -0.72}, both))
    # the series at wide arrays, and the general law of the minimum at N = 12
    rows.append(_row("gsc_cdf", {"spec": [15, 14, 1.0], "x": 3.0}, ("series",)))
    rows.append(_row("gsc_pdf", {"spec": [16, 15, 1.0], "x": 0.5}, ("series",)))
    rows.append(_row("min_expectation", {**_pair(12, 6), "b": 3.0, "p": 0.7}, ("series",)))
    unknown = set(DEFECTS) - {row["id"] for row in rows}
    if unknown:
        raise ValueError(f"DEFECTS names rows that are not defined: {sorted(unknown)}")
    return rows


# --- the script -----------------------------------------------------------


def _evaluate(row):
    """The value of every route of ``row``, and their largest relative spread."""
    values = [compute(row, route) for route in row["routes"]]
    with mp.workdps(mp_oracle.DPS + mp_oracle.GUARD):
        spread = max(float(abs(v / values[0] - 1)) for v in values)
    return values[0], spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="recompute every stored row")
    args = parser.parse_args(argv)
    rows = load() if args.check else definitions()
    previous = {} if args.check else _stored_values()
    failures = kept = 0
    start = time.perf_counter()
    for row in rows:
        inputs, value = previous.get(row["id"], (None, None))
        if inputs == tuple(row[key] for key in _INPUTS):
            row["value"], kept = value, kept + 1
            continue
        t = time.perf_counter()
        value, spread = _evaluate(row)
        status = "ok"
        if spread > AGREE:
            status, failures = f"ROUTES DISAGREE by {spread:.1e}", failures + 1
        elif args.check and drift(row, value) > DRIFT:
            status, failures = f"DRIFT {drift(row, value):.1e}", failures + 1
        row.setdefault("value", mp.nstr(value, mp_oracle.DPS))
        print(f"{row['id']}: {mp.nstr(value, 20)} (routes {spread:.0e}) {status} "
              f"{time.perf_counter() - t:.1f} s", flush=True)
    if args.check:
        stored = [{key: value for key, value in row.items() if key != "value"} for row in rows]
        if stored != definitions():
            print("the table's rows differ from definitions(); rewrite it", flush=True)
            failures += 1
    else:
        layout = ("id", "quantity", "inputs", "routes", "value", "rel_tol", "defect")
        lines = ",\n".join(json.dumps({key: row[key] for key in layout}) for row in rows)
        PATH.write_text(f'{{"dps": {mp_oracle.DPS}, "rows": [\n{lines}\n]}}\n')
    print(f"{len(rows)} rows ({kept} kept), {failures} failed, {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
