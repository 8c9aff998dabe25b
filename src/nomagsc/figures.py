"""Built-in sweep specs and plot scripts for the five standard figures.

Each figure is a sweep over the reference configuration (N = 4 antennas
per user, omega_s = 1, omega_w = 0.1, T*B = 1) plus a generated gnuplot
script.  The toolkit's deliverable is the data file; rendering the plot
is the user's step.
"""

from __future__ import annotations

import os

from .sweep import SweepRow, SweepSpec, emit, run_sweep

_BASE = {
    "pair": {"N_s": 4, "N_w": 4, "omega_s": 1.0, "omega_w": 0.1},
    "block_length": 1e-5,
    "bandwidth": 1e5,
    "power": {"a_s": 0.24},
    "sim": {"samples": 100_000, "seed": 2024},
}

FIGURE_SPECS = {
    # NOMA vs OMA sum EC across n, delay exponent fixed at 1
    "fig1": {
        **_BASE,
        "n": [1, 2, 3, 4],
        "snr_db": list(range(0, 41, 5)),
        "theta": [1.0],
        "methods": ["exact", "oma", "montecarlo"],
    },
    # NOMA-OMA gap across n and theta
    "fig2": {
        **_BASE,
        "n": [1, 2, 3, 4],
        "snr_db": list(range(0, 41, 5)),
        "theta": [0.5, 1.0, 2.0],
        "methods": ["exact", "oma"],
    },
    # high-SNR approximation vs exact (nu ~ 0.72 < 1)
    "fig3": {
        **_BASE,
        "n": [1, 2, 3, 4],
        "snr_db": list(range(10, 41, 5)),
        "theta": [0.5],
        "methods": ["exact", "high_snr"],
    },
    # low-SNR approximation vs exact
    "fig4": {
        **_BASE,
        "n": [1, 2, 3, 4],
        "snr_db": list(range(-30, 1, 5)),
        "theta": [0.5],
        "methods": ["exact", "low_snr"],
    },
    # ergodic-rate bound minus EC across theta
    "fig5": {
        **_BASE,
        "n": [1, 2, 4],
        "snr_db": list(range(0, 41, 5)),
        "theta": [0.5, 1.0, 2.0],
        "methods": ["exact", "ergodic"],
    },
}

# figures whose y-axis is the difference between two methods' e_sum
_DIFF_FIGURES = {"fig2": ("exact", "oma"), "fig5": ("ergodic", "exact")}


def figure_spec(name: str) -> SweepSpec:
    if name not in FIGURE_SPECS:
        raise ValueError(
            f"unknown figure {name!r}; expected one of {sorted(FIGURE_SPECS)}"
        )
    return SweepSpec.from_dict(FIGURE_SPECS[name])


def _diff_rows(rows: list[SweepRow], left: str, right: str):
    by_point = {}
    for row in rows:
        key = (row.rho_db, row.theta, row.n_s)
        by_point.setdefault(key, {})[row.method] = row
    out = []
    for key in sorted(by_point):
        pair = by_point[key]
        if left in pair and right in pair and pair[left].status == "ok":
            out.append(
                (key[0], key[1], key[2], pair[left].e_sum - pair[right].e_sum)
            )
    return out


def _gnuplot_script(name: str, spec: SweepSpec, diff: bool) -> str:
    lines = [
        f"# gnuplot script for {name}; run: gnuplot {name}.gp",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'transmit SNR rho [dB]'",
        "set grid",
        f"set output '{name}.png'",
        "set terminal pngcairo size 900,600",
    ]
    if diff:
        left, right = _DIFF_FIGURES[name]
        lines.append(f"set ylabel 'sum {left} - sum {right} [bits/s/Hz]'")
        series = [
            f"'{name}_diff.csv' using ($2=={theta} && $3=={n} ? $1 : NaN):4 "
            f"with linespoints title 'theta={theta}, n={n}'"
            for theta in spec.theta
            for n in spec.n_values
        ]
    else:
        lines.append("set ylabel 'sum effective capacity [bits/s/Hz]'")
        series = [
            f"'{name}.csv' using "
            f"(strcol(7) eq '{method}' && $4=={n} && $2=={theta} ? $1 : NaN):10 "
            f"with linespoints title '{method}, theta={theta}, n={n}'"
            for method in spec.methods
            for theta in spec.theta
            for n in spec.n_values
        ]
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + s for s in series))
    lines.append("")
    return "\n".join(lines)


def generate_figure(name: str, out_dir: str) -> list[str]:
    """Run the figure's sweep; write its CSV data and gnuplot script.

    Returns the list of files written.
    """
    spec = figure_spec(name)
    rows = run_sweep(spec)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    data_path = os.path.join(out_dir, f"{name}.csv")
    emit(rows, "csv", data_path)
    written.append(data_path)
    diff = name in _DIFF_FIGURES
    if diff:
        left, right = _DIFF_FIGURES[name]
        diff_path = os.path.join(out_dir, f"{name}_diff.csv")
        with open(diff_path, "w") as fh:
            fh.write("rho_db,theta,n,delta_e_sum\n")
            for rho_db, theta, n, delta in _diff_rows(rows, left, right):
                fh.write(f"{rho_db:.12g},{theta:.12g},{n},{delta:.12g}\n")
        written.append(diff_path)
    script_path = os.path.join(out_dir, f"{name}.gp")
    with open(script_path, "w") as fh:
        fh.write(_gnuplot_script(name, spec, diff))
    written.append(script_path)
    return written
