"""Declarative sweep configuration and execution.

A sweep config is a JSON object describing the user pair, the grid over
(SNR in dB, theta, combined paths n, power split) and the evaluation
methods to run.  Example::

    {
      "pair": {"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1},
      "n": [1, 2, 3, 4],
      "snr_db": [0, 10, 20, 30, 40],
      "theta": [1.0],
      "block_length": 1e-5,
      "bandwidth": 1e5,
      "power": {"a_s": 0.24},
      "methods": ["exact", "oma", "montecarlo"],
      "sim": {"samples": 100000, "seed": 7}
    }

``power`` is either a fixed ``{"a_s": value}`` or
``{"search": {"a_min": ..., "a_max": ..., "step": ..., "objective": ...}}``,
in which case the split is optimized per grid point.  ``sim`` holds the
Monte Carlo ``samples`` and ``seed``; the batch size is not a setting
(``montecarlo.BATCH``).  Every value is checked at load, before any
evaluation, and each of these is a ``ConfigError``: an unknown key at
any level (``sim.batch`` included); a ``power`` without
exactly one entry; a user pair that is invalid at some ``n`` (a
non-finite branch power, omega_w >= omega_s, an antenna count out of
range); a negative or non-finite theta; an SNR whose linear value
overflows or underflows; a ``block_length`` or ``bandwidth`` <= 0 or not
finite; a nu = theta*T*B/ln 2 that overflows; a fixed ``a_s`` outside
(0, 0.5); a search ``step`` whose grid would hold more than
``optimizer.MAX_SPLITS`` splits; a ``sim.seed`` outside [0, 2**64); a
repeated entry in ``n``, ``snr_db``, ``theta`` or ``methods``.
Every requested (point, method) combination produces exactly one row;
evaluator errors are recorded in-row under ``status`` and never abort
sibling points.  The ``montecarlo`` rows of one n come from one pass over
that n's draws; a point whose estimate fails gets an error row, and an
error in the pass's batch loop fails every ``montecarlo`` row of that n.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from . import capacity, montecarlo
from .capacity import PowerSplit, QosProfile, SnrPoint, ValidityError
from .distributions import GscSpec, UserPairSpec
from .montecarlo import SimPlan
from .numerics import reuse_densities
from .optimizer import SearchSpec, optimize_power

METHODS = ("exact", "high_snr", "low_snr", "oma", "ergodic", "montecarlo")

CSV_COLUMNS = (
    "rho_db",
    "theta",
    "nu",
    "n_s",
    "n_w",
    "a_s",
    "method",
    "e_strong",
    "e_weak",
    "e_sum",
    "std_error",
    "status",
)

_CONFIG_FIELDS = (
    "pair", "n", "snr_db", "theta", "block_length", "bandwidth", "power", "methods", "sim",
)


class ConfigError(ValueError):
    """A sweep configuration failed validation before any evaluation."""


def _build(cls, fields, where: str, convert):
    """``cls(**fields)`` with ``convert`` applied to every field it names;
    any bad key or value is reported as a ConfigError."""
    if not isinstance(fields, dict):
        raise ConfigError(f"{where} must be a JSON object")
    try:
        return cls(**{k: convert[k](v) if k in convert else v for k, v in fields.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _known(fields: dict, allowed: tuple[str, ...], where: str) -> None:
    """Reject any key of ``fields`` that is not in ``allowed``."""
    unknown = sorted(set(fields) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}; expected {list(allowed)}")


def _real(value) -> float:
    """A JSON number as a float; booleans and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """A JSON number with an integral value (2 or 2.0) as an int."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    antennas_strong: int
    antennas_weak: int
    omega_strong: float
    omega_weak: float
    n_values: tuple[int, ...]
    snr_db: tuple[float, ...]
    theta: tuple[float, ...]
    block_length: float
    bandwidth: float
    a_s: float | None  # fixed split, or None when searching
    search: SearchSpec | None
    methods: tuple[str, ...]
    sim: SimPlan = field(default_factory=SimPlan)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        def need(key, ctx=raw, where="config", kind=None):
            if key not in ctx:
                raise ConfigError(f"missing field {key!r} in {where}")
            if kind is not None and not isinstance(ctx[key], kind):
                kind_name = "object" if kind is dict else "list"
                raise ConfigError(f"field {key!r} must be a JSON {kind_name}")
            return ctx[key]

        def grid(key, convert):
            values = need(key, kind=list)
            try:
                return tuple(convert(v) for v in values)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid {key!r}: {exc}") from exc

        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _known(raw, _CONFIG_FIELDS, "config")
        pair = need("pair", kind=dict)
        _known(pair, ("N_s", "N_w", "omega_s", "omega_w"), "pair")
        power = need("power", kind=dict)
        _known(power, ("a_s", "search"), "power")
        search = None
        if "search" in power:
            search = _build(
                SearchSpec, power["search"], "power.search",
                {"a_min": _real, "a_max": _real, "step": _real},
            )
        sim = _build(
            SimPlan, raw.get("sim", {}), "sim",
            {"samples": _count, "seed": _count},
        )
        try:
            return cls(
                antennas_strong=_count(need("N_s", pair, "pair")),
                antennas_weak=_count(need("N_w", pair, "pair")),
                omega_strong=_real(need("omega_s", pair, "pair")),
                omega_weak=_real(need("omega_w", pair, "pair")),
                n_values=grid("n", _count),
                snr_db=grid("snr_db", _real),
                theta=grid("theta", _real),
                block_length=_real(raw.get("block_length", 1e-5)),
                bandwidth=_real(raw.get("bandwidth", 1e5)),
                a_s=_real(power["a_s"]) if "a_s" in power else None,
                search=search,
                methods=grid("methods", str),
                sim=sim,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def __post_init__(self):
        """Check every value: building each grid point fails on a bad one."""
        if not self.n_values or not self.snr_db or not self.theta:
            raise ConfigError("grids 'n', 'snr_db' and 'theta' must be non-empty")
        grids = {"n": self.n_values, "snr_db": self.snr_db, "theta": self.theta,
                 "methods": self.methods}
        for key, values in grids.items():
            if len(set(values)) != len(values):
                raise ConfigError(f"field {key!r} has duplicate entries: {list(values)}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if (self.a_s is None) == (self.search is None):
            raise ConfigError("field 'power' needs exactly one of 'a_s' and 'search'")
        if self.a_s is not None:
            PowerSplit(self.a_s)
        list(self.points())

    def pair_for(self, n: int) -> UserPairSpec:
        return UserPairSpec(
            GscSpec(self.antennas_strong, min(n, self.antennas_strong), self.omega_strong),
            GscSpec(self.antennas_weak, min(n, self.antennas_weak), self.omega_weak),
        )

    def points(self):
        """(rho_db, theta, n, pair, qos, snr) of every grid point, in row
        order: rho_db, then theta, then n, each ascending."""
        for rho_db in sorted(self.snr_db):
            snr = SnrPoint.from_db(rho_db)
            for theta in sorted(self.theta):
                qos = QosProfile(theta, self.block_length, self.bandwidth)
                for n in sorted(self.n_values):
                    yield rho_db, theta, n, self.pair_for(n), qos, snr


@dataclass(frozen=True)
class SweepRow:
    rho_db: float
    theta: float
    nu: float
    n_s: int
    n_w: int
    a_s: float | None  # None when the power search failed
    method: str
    e_strong: float | None
    e_weak: float | None
    e_sum: float | None
    std_error: float | None
    status: str = "ok"


def load_spec(path: str) -> SweepSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return SweepSpec.from_dict(raw)


def _row(coords: dict, method: str, status: str, values=(None, None, None)) -> SweepRow:
    """A row without values (a failed method), or with (e_s, e_w, std)."""
    e_s, e_w, std = values
    e_sum = None if e_s is None else e_s + e_w
    return SweepRow(**coords, method=method, e_strong=e_s, e_weak=e_w, e_sum=e_sum,
                    std_error=std, status=status)


def _evaluate_point(args):
    """(coords, case, rows) of one grid point of ``spec.points()``: its row
    coordinates, its (split, qos, snr) case and the rows of every method
    but ``montecarlo``, which ``run_sweep`` estimates per n.  The split is
    the fixed a_s or the searched optimum, whose report is the row of the
    method the search evaluated; when the search fails, case is None and
    every method, ``montecarlo`` included, has an error row."""
    spec, (rho_db, theta, n, pair, qos, snr) = args
    coords = dict(rho_db=rho_db, theta=theta, nu=qos.nu,
                  n_s=pair.strong.combined, n_w=pair.weak.combined)
    methods = sorted(spec.methods, key=METHODS.index)
    a_s, searched = spec.a_s, {}
    if a_s is None:
        try:
            result = optimize_power(pair, qos, snr, spec.search)
        except Exception as exc:
            coords["a_s"] = None
            return coords, None, [_row(coords, method, f"error: {exc}") for method in methods]
        a_s = result.a_star
        searched[_SEARCH_METHODS[spec.search.objective]] = result.report
    coords["a_s"] = a_s
    split = PowerSplit(a_s)
    rows = []
    for method in methods:
        if method == "montecarlo":
            continue
        try:
            rep = searched[method] if method in searched else _EVALUATORS[method](pair, split, qos, snr)
        except ValidityError as exc:
            rows.append(_row(coords, method, f"invalid: {exc}"))
        except Exception as exc:
            rows.append(_row(coords, method, f"error: {exc}"))
        else:
            values = (rep.e_strong, rep.e_weak, rep.numeric_error)
            rows.append(_row(coords, method, "ok", values))
    return coords, (split, qos, snr), rows


# method -> evaluator, read from ``capacity`` at call time so that a wrapper there is used
_EVALUATORS = {
    "exact": lambda pair, split, qos, snr: capacity.evaluate_noma(pair, split, qos, snr),
    "high_snr": lambda pair, split, qos, snr: capacity.ec_high_snr(pair, split, qos, snr),
    "low_snr": lambda pair, split, qos, snr: capacity.ec_low_snr(pair, split, qos, snr),
    "oma": lambda pair, split, qos, snr: capacity.evaluate_oma(pair, qos, snr),
    "ergodic": lambda pair, split, qos, snr: capacity.ergodic_rate(pair, split, snr),
}
# search objective -> the method whose report the search evaluates
_SEARCH_METHODS = {"sum_ec": "exact", "sum_rate": "ergodic"}


def _montecarlo_pass(spec: SweepSpec, n: int, cases: list) -> list:
    """Monte Carlo EC of every case of one n, from one pass over its draws:
    per case, the estimates or the exception that failed it."""
    try:
        return montecarlo.estimate_cases(spec.pair_for(n), cases, spec.sim, ("ec_strong", "ec_weak"))
    except Exception as exc:  # the batch loop failed: every case of this n
        return [exc] * len(cases)


def _montecarlo_row(coords: dict, est) -> SweepRow:
    if isinstance(est, Exception):
        return _row(coords, "montecarlo", f"error: {est}")
    es, ew = est["ec_strong"], est["ec_weak"]
    std = (es.std_error**2 + ew.std_error**2) ** 0.5
    return _row(coords, "montecarlo", "ok", (es.value, ew.value, std))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid; rows come back in lexicographic grid order
    (rho_db, theta, n) then canonical method order.  Without methods there
    are no rows, and no point is evaluated.  The whole sweep is one
    ``numerics.reuse_densities`` block: its points, methods and power
    searches integrate over few channel laws, and share their density
    values."""
    if not spec.methods:
        return []
    with reuse_densities():
        points = list(spec.points())
        evaluated = [_evaluate_point((spec, point)) for point in points]
        if "montecarlo" in spec.methods:
            # The channel law depends on n only, so one pass over its draws
            # estimates every point of that n.  montecarlo is the last
            # method, so its row goes at the end of the point's rows.
            by_n: dict[int, list[int]] = {}
            for i, (point, (_, case, _)) in enumerate(zip(points, evaluated)):
                if case is not None:
                    by_n.setdefault(point[2], []).append(i)
            for n, idx in by_n.items():
                estimates = _montecarlo_pass(spec, n, [evaluated[i][1] for i in idx])
                for i, est in zip(idx, estimates):
                    coords, _, rows = evaluated[i]
                    rows.append(_montecarlo_row(coords, est))
    return [row for _, _, rows in evaluated for row in rows]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_table(path: str, columns, table) -> None:
    """A CSV file: the header ``columns``, then one line per row of
    ``table``; floats to 12 significant digits, None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in table)


def row_record(row: SweepRow) -> dict:
    """Flat record with numbers rounded to 12 significant digits."""
    record = {}
    for col in CSV_COLUMNS:
        value = getattr(row, col)
        if isinstance(value, float):
            value = float(f"{value:.12g}")
        record[col] = value
    return record


def emit(rows: list[SweepRow], fmt: str, path: str) -> None:
    """Write the sweep table as CSV or JSON."""
    try:
        if fmt == "csv":
            write_table(path, CSV_COLUMNS, ([getattr(r, col) for col in CSV_COLUMNS] for r in rows))
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump([row_record(r) for r in rows], fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
