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
      "sim": {"samples": 100000, "seed": 7, "batch": 262144}
    }

``power`` is either a fixed ``{"a_s": value}`` or
``{"search": {"a_min": ..., "a_max": ..., "step": ..., "objective": ...}}``,
in which case the split is optimized per grid point.  Every requested
(point, method) combination produces exactly one row; evaluator errors
are recorded in-row under ``status`` and never abort sibling points.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import capacity, montecarlo
from .capacity import PowerSplit, QosProfile, SnrPoint, ValidityError
from .distributions import GscSpec, UserPairSpec
from .montecarlo import SimPlan
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

WORKERS_ENV = "NOMAGSC_WORKERS"


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
        pair = need("pair", kind=dict)
        n_values = grid("n", _count)
        snr_db = grid("snr_db", _real)
        theta = grid("theta", _real)
        if not n_values or not snr_db or not theta:
            raise ConfigError("grids 'n', 'snr_db' and 'theta' must be non-empty")
        power = need("power", kind=dict)
        a_s = None
        search = None
        if "a_s" in power:
            a_s = power["a_s"]
        elif "search" in power:
            search = _build(
                SearchSpec, power["search"], "power.search",
                {"a_min": _real, "a_max": _real, "step": _real},
            )
        else:
            raise ConfigError("field 'power' needs either 'a_s' or 'search'")
        methods = grid("methods", str)
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        sim = _build(
            SimPlan, raw.get("sim", {}), "sim",
            {"samples": _count, "seed": _count, "batch": _count},
        )
        try:
            return cls(
                antennas_strong=_count(need("N_s", pair, "pair")),
                antennas_weak=_count(need("N_w", pair, "pair")),
                omega_strong=_real(need("omega_s", pair, "pair")),
                omega_weak=_real(need("omega_w", pair, "pair")),
                n_values=n_values,
                snr_db=snr_db,
                theta=theta,
                block_length=_real(raw.get("block_length", 1e-5)),
                bandwidth=_real(raw.get("bandwidth", 1e5)),
                a_s=_real(a_s) if search is None else None,
                search=search,
                methods=methods,
                sim=sim,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        power = (
            {"a_s": self.a_s}
            if self.a_s is not None
            else {"search": vars(self.search)}
        )
        return {
            "pair": {
                "N_s": self.antennas_strong,
                "N_w": self.antennas_weak,
                "omega_s": self.omega_strong,
                "omega_w": self.omega_weak,
            },
            "n": list(self.n_values),
            "snr_db": list(self.snr_db),
            "theta": list(self.theta),
            "block_length": self.block_length,
            "bandwidth": self.bandwidth,
            "power": power,
            "methods": list(self.methods),
            "sim": vars(self.sim),
        }

    def pair_for(self, n: int) -> UserPairSpec:
        return UserPairSpec(
            GscSpec(self.antennas_strong, min(n, self.antennas_strong), self.omega_strong),
            GscSpec(self.antennas_weak, min(n, self.antennas_weak), self.omega_weak),
        )


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


def _evaluate_point(args):
    spec, rho_db, theta, n, a_s = args
    pair = spec.pair_for(n)
    qos = QosProfile(theta, spec.block_length, spec.bandwidth)
    snr = SnrPoint.from_db(rho_db)
    coords = dict(
        rho_db=rho_db,
        theta=theta,
        nu=qos.nu,
        n_s=pair.strong.combined,
        n_w=pair.weak.combined,
    )
    methods = sorted(spec.methods, key=METHODS.index)
    if a_s is None:
        try:
            a_s = optimize_power(pair, qos, snr, spec.search).a_star
        except Exception as exc:
            return [
                SweepRow(**coords, a_s=None, method=method, e_strong=None, e_weak=None,
                         e_sum=None, std_error=None, status=f"error: {exc}")
                for method in methods
            ]
    coords["a_s"] = a_s
    split = PowerSplit(a_s)
    rows = []
    for method in methods:
        try:
            e_s, e_w, std = _run_method(method, pair, split, qos, snr, spec.sim)
        except ValidityError as exc:
            rows.append(
                SweepRow(**coords, method=method, e_strong=None, e_weak=None,
                         e_sum=None, std_error=None, status=f"invalid: {exc}")
            )
            continue
        except Exception as exc:
            rows.append(
                SweepRow(**coords, method=method, e_strong=None, e_weak=None,
                         e_sum=None, std_error=None, status=f"error: {exc}")
            )
            continue
        rows.append(
            SweepRow(**coords, method=method, e_strong=e_s, e_weak=e_w,
                     e_sum=e_s + e_w, std_error=std)
        )
    return rows


def _run_method(method, pair, split, qos, snr, sim):
    if method == "exact":
        rep = capacity.evaluate_noma(pair, split, qos, snr)
        return rep.e_strong, rep.e_weak, rep.numeric_error
    if method == "high_snr":
        rep = capacity.ec_high_snr(pair, split, qos, snr)
        return rep.e_strong, rep.e_weak, 0.0
    if method == "low_snr":
        rep = capacity.ec_low_snr(pair, split, qos, snr)
        return rep.e_strong, rep.e_weak, 0.0
    if method == "oma":
        rep = capacity.evaluate_oma(pair, qos, snr)
        return rep.e_strong, rep.e_weak, rep.numeric_error
    if method == "ergodic":
        rep = capacity.ergodic_rate(pair, split, snr)
        return rep.e_strong, rep.e_weak, rep.numeric_error
    if method == "montecarlo":
        (est,) = montecarlo.estimate_cases(
            pair, [(split, qos, snr)], sim, ("ec_strong", "ec_weak")
        )
        es, ew = est["ec_strong"], est["ec_weak"]
        std = (es.std_error**2 + ew.std_error**2) ** 0.5
        return es.value, ew.value, std
    raise ValueError(f"unknown method {method!r}")


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return max(count, 1)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid; rows come back in lexicographic grid order
    (rho_db, theta, n) then canonical method order."""
    points = [
        (spec, rho_db, theta, n, spec.a_s)
        for rho_db in sorted(spec.snr_db)
        for theta in sorted(spec.theta)
        for n in sorted(spec.n_values)
    ]
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_point, points))
    else:
        chunks = [_evaluate_point(p) for p in points]
    return [row for chunk in chunks for row in chunk]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


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
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump([row_record(r) for r in rows], fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
