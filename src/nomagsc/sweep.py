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
in which case the split is optimized per grid point (``nomagsc optimize``
prints these searches).  ``sim`` holds the Monte Carlo ``samples`` and
``seed``; the batch size is not a setting (``montecarlo.BATCH``).  One
reader checks every JSON object of a config (the root, ``pair``,
``power``, ``power.search``, ``sim``) at load, before any evaluation,
and each of these is a ``ConfigError``: an unknown key, reported with
the allowed keys of its level (``sim.batch`` included); a ``power``
without exactly one entry; an ``n`` above both antenna counts (one
between them is clamped for the smaller receiver); a user pair that is
invalid at some ``n`` (a non-finite branch power, omega_w >= omega_s, an
antenna count out of range); a negative or non-finite theta; an SNR
whose linear value overflows or underflows; a ``block_length`` or
``bandwidth`` <= 0 or not finite; a nu = theta*T*B/ln 2 that overflows;
a fixed ``a_s`` outside (0, 0.5); a search ``step`` whose grid would
hold more than ``optimizer.MAX_SPLITS`` splits; a ``sim.seed`` outside
[0, 2**64); a repeated entry in ``n``, ``snr_db``, ``theta`` or
``methods``.
Every requested (point, method) combination produces exactly one row,
built from its point's outcome table {method: (status, values)}; an
evaluator error goes in as its ``status`` text where it is caught, so
it keeps no frames alive and never aborts sibling points.  The
``montecarlo`` outcomes of every n come from one pass that draws each
batch once; a point whose estimate fails gets an error, and any other
error in the pass fails every ``montecarlo`` row.  The ergodic rate
does not read theta, so it is evaluated once per (n, a_s, rho), and
every theta gets that report or error.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field

from . import capacity, montecarlo
from .capacity import PowerSplit, QosProfile, SnrPoint, ValidityError
from .distributions import GscSpec, UserPairSpec
from .montecarlo import SimPlan
from .numerics import reuse_densities
from .optimizer import SearchSpec, optimize_power

METHODS = ("exact", "high_snr", "low_snr", "oma", "ergodic", "montecarlo")


class ConfigError(ValueError):
    """A sweep configuration failed validation before any evaluation."""


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


def _grid(convert):
    """A JSON list as a tuple, ``convert`` applied to every entry."""
    def read(values) -> tuple:
        if not isinstance(values, list):
            raise TypeError(f"expected a JSON list, got {values!r}")
        return tuple(convert(v) for v in values)
    return read


def _object(raw, where: str, fields: dict, required: tuple[str, ...] = ()) -> dict:
    """The JSON object ``raw`` (the config root or the object at path
    ``where``) with every value converted by its key's function in
    ``fields``.  Not an object, a key outside ``fields``, a missing
    ``required`` key or a value its function rejects is a ConfigError;
    the last is reported as ``invalid <path>: …``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}; expected {list(fields)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing field {key!r} in {where}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = fields[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            path = key if where == "config" else f"{where}.{key}"
            raise ConfigError(f"invalid {path}: {exc}") from exc
    return values


_PAIR_FIELDS = {"N_s": _count, "N_w": _count, "omega_s": _real, "omega_w": _real}
_SEARCH_FIELDS = {"a_min": _real, "a_max": _real, "step": _real, "objective": str}
_POWER_FIELDS = {
    "a_s": _real,
    "search": lambda raw: SearchSpec(**_object(raw, "power.search", _SEARCH_FIELDS)),
}
# key -> converter, in the order an unknown-key error lists them
_CONFIG_FIELDS = {
    "pair": lambda raw: _object(raw, "pair", _PAIR_FIELDS, tuple(_PAIR_FIELDS)),
    "n": _grid(_count),
    "snr_db": _grid(_real),
    "theta": _grid(_real),
    "block_length": _real,
    "bandwidth": _real,
    "power": lambda raw: _object(raw, "power", _POWER_FIELDS),
    "methods": _grid(str),
    "sim": lambda raw: SimPlan(**_object(raw, "sim", {"samples": _count, "seed": _count})),
}
_CONFIG_REQUIRED = ("pair", "n", "snr_db", "theta", "power", "methods")


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
        config = _object(raw, "config", _CONFIG_FIELDS, _CONFIG_REQUIRED)
        pair, power = config["pair"], config["power"]
        try:
            return cls(
                antennas_strong=pair["N_s"], antennas_weak=pair["N_w"],
                omega_strong=pair["omega_s"], omega_weak=pair["omega_w"],
                n_values=config["n"], snr_db=config["snr_db"], theta=config["theta"],
                block_length=config.get("block_length", 1e-5),
                bandwidth=config.get("bandwidth", 1e5),
                a_s=power.get("a_s"), search=power.get("search"),
                methods=config["methods"], sim=config.get("sim", SimPlan()),
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
        # pair_for clamps n to each N, so such an n would repeat the rows of n = max(N_s, N_w)
        if max(self.n_values) > max(self.antennas_strong, self.antennas_weak):
            raise ConfigError(f"n = {max(self.n_values)} is above both antenna counts "
                              f"(N_s = {self.antennas_strong}, N_w = {self.antennas_weak})")
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


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def load_spec(path: str) -> SweepSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return SweepSpec.from_dict(raw)


def _row(coords: dict, method: str, status: str, values: tuple) -> SweepRow:
    """A row with values (e_s, e_w, std), all None for a failed method."""
    e_s, e_w, std = values
    e_sum = None if e_s is None else e_s + e_w
    return SweepRow(**coords, method=method, e_strong=e_s, e_weak=e_w, e_sum=e_sum,
                    std_error=std, status=status)


def _reported(report) -> tuple[str, tuple]:
    """(status, values) of the row of a method's report."""
    return "ok", (report.e_strong, report.e_weak, report.numeric_error)


def _outcome(evaluate, *args) -> tuple[str, tuple]:
    """(status, values) of the row of ``evaluate(*args)``: its report's, or
    the error that failed it with no values.  Only the status text is
    kept of an error, so no traceback outlives the call."""
    try:
        report = evaluate(*args)
    except ValidityError as exc:
        return f"invalid: {exc}", (None, None, None)
    except Exception as exc:
        return f"error: {exc}", (None, None, None)
    return _reported(report)


def _evaluate_point(args):
    """(coords, case, outcomes) of one grid point of ``spec.points()``:
    its row coordinates, its (split, qos, snr) case and the
    {method: (status, values)} of its requested methods that read theta,
    evaluated in ``METHODS`` order.  The split is the fixed a_s or the
    searched optimum, whose report is the outcome of the method the search
    evaluated (``ergodic`` for ``sum_rate``, which ``run_sweep`` then does
    not evaluate again).  When the search fails, case is None and every
    requested method, ``ergodic`` and ``montecarlo`` included, has its
    error."""
    spec, (rho_db, theta, n, pair, qos, snr) = args
    coords = dict(rho_db=rho_db, theta=theta, nu=qos.nu, a_s=spec.a_s,
                  n_s=pair.strong.combined, n_w=pair.weak.combined)
    outcomes = {}
    if spec.search is not None:
        try:
            result = optimize_power(pair, qos, snr, spec.search)
        except Exception as exc:
            return coords, None, dict.fromkeys(spec.methods, (f"error: {exc}", (None, None, None)))
        coords["a_s"] = result.a_star
        outcomes[_SEARCH_METHODS[spec.search.objective]] = _reported(result.report)
    split = PowerSplit(coords["a_s"])
    for method, evaluate in _EVALUATORS.items():
        if method in spec.methods and method not in outcomes:
            outcomes[method] = _outcome(evaluate, pair, split, qos, snr)
    return coords, (split, qos, snr), outcomes


# method -> evaluator of the methods that read theta, in ``METHODS``
# order, read from ``capacity`` at call time so that a wrapper there is used
_EVALUATORS = {
    "exact": lambda pair, split, qos, snr: capacity.evaluate_noma(pair, split, qos, snr),
    "high_snr": lambda pair, split, qos, snr: capacity.ec_high_snr(pair, split, qos, snr),
    "low_snr": lambda pair, split, qos, snr: capacity.ec_low_snr(pair, split, qos, snr),
    "oma": lambda pair, split, qos, snr: capacity.evaluate_oma(pair, qos, snr),
}
# search objective -> the method whose report the search evaluates
_SEARCH_METHODS = {"sum_ec": "exact", "sum_rate": "ergodic"}


def _montecarlo_pass(spec: SweepSpec, points: list[tuple[int, tuple]]) -> list[tuple[str, tuple]]:
    """(status, values) of the Monte Carlo EC of every (n, case), from one
    pass over the draws: the estimates, the error that failed the case, or
    the error that failed the pass.  Every n of a sweep has the same
    antenna counts, so its pairs share each batch's draws."""
    by_n: dict[int, list] = {}
    for n, case in points:
        by_n.setdefault(n, []).append(case)
    work = [(spec.pair_for(n), cases) for n, cases in by_n.items()]
    try:
        results = montecarlo.estimate_pairs(work, spec.sim, ("ec_strong", "ec_weak"))
    except Exception as exc:  # the pass failed: every case of every n
        return [(f"error: {exc}", (None, None, None))] * len(points)
    per_n = {n: iter(result) for n, result in zip(by_n, results)}
    outcomes = []
    for n, _ in points:
        est = next(per_n[n])
        if isinstance(est, Exception):
            outcomes.append((f"error: {est}", (None, None, None)))
        else:
            es, ew = est["ec_strong"], est["ec_weak"]
            outcomes.append(("ok", (es.value, ew.value, (es.std_error**2 + ew.std_error**2) ** 0.5)))
    return outcomes


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid; rows come back in lexicographic grid order
    (rho_db, theta, n) then canonical method order.  Without methods there
    are no rows, and no point is evaluated.  The whole sweep is one
    ``numerics.reuse_densities`` block: its points, methods and power
    searches integrate over few channel laws, and share their density
    values.  An outcome that several points share is computed once and
    goes into the table of each: the ergodic rate, which does not read
    theta, once per (n, a_s, rho); the ``montecarlo`` estimates of every
    n from one pass, which draws each batch once for all n.  Every row is
    then built from its point's ``_evaluate_point`` table."""
    if not spec.methods:
        return []
    with reuse_densities():
        points = list(spec.points())
        evaluated = [_evaluate_point((spec, point)) for point in points]
        # the points whose split is known: a failed search has every outcome
        estimated = [(point, e) for point, e in zip(points, evaluated) if e[1] is not None]
        if "ergodic" in spec.methods:
            rates: dict[tuple, tuple] = {}  # (n, a_s, rho) -> (status, values)
            for (_, _, n, pair, _, _), (_, (split, _, snr), outcomes) in estimated:
                key = (n, split.a_s, snr.rho)
                if key not in rates:
                    rates[key] = outcomes.get("ergodic") or _outcome(
                        capacity.ergodic_rate, pair, split, snr)
                outcomes["ergodic"] = rates[key]
        if "montecarlo" in spec.methods:
            mc = _montecarlo_pass(spec, [(point[2], case) for point, (_, case, _) in estimated])
            for (_, (_, _, outcomes)), outcome in zip(estimated, mc):
                outcomes["montecarlo"] = outcome
    methods = [m for m in METHODS if m in spec.methods]
    return [_row(coords, m, *outcomes[m]) for coords, _, outcomes in evaluated for m in methods]


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
