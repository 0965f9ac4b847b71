"""Convergence-study orchestration: run solvers over refinement ladders,
estimate rates, and emit CSV/markdown reports.

Study kinds:

* ``temporal``: fix the mesh and evaluation time, double the step count;
  errors are measured against the semidiscrete (discrete-modal) reference by
  default, so the mesh never pollutes the temporal rate.
* ``spatial``: fix a fine step count, refine the mesh; errors are measured
  against the truncated continuous series solution in L2 and H1.
* ``decay``: fix the step count and walk the evaluation time down by decades
  to expose the data-regularity exponent of the error constant.

Every cell of a ladder, and ``fracstep solve`` as a one-cell temporal study,
goes through :func:`run_cell`: one run of one scheme, measured by
:func:`measure` against the reference :func:`_reference` builds: the
continuous series, the discrete-modal solution or the scheme's own finer run
(self-convergence). Studies report H1 errors against the series only.
A study against the discrete-modal solution builds it for all its times
in one ``reference.discrete_reference`` call before the first cell, so a
decay ladder asks for each Mittag-Leffler factor once, not once per time.

A cell steps, takes its reference and measures in one view (see
:mod:`meshfem`): ``fem.modal`` against the discrete-modal reference, which
needs its eigensystem anyway, else ``fem.sine`` with CG. Only the series
needs nodal values, formed once from the final state for its closed-form
norms (``ExactSolution.error_norms``), which need no quadrature.

Reports are deterministic: fixed iteration orders, no randomness, and float
formatting with 17 significant digits so CSV round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import baselines, meshfem, reference, schemes

PRIMARY_SCHEMES = ("be", "sbd")
BASELINE_SCHEMES = baselines.KINDS
ALL_SCHEMES = PRIMARY_SCHEMES + BASELINE_SCHEMES

REFERENCES = ("discrete_modal", "continuous_modal", "self_convergence")

STUDY_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["case", "alphas", "schemes", "kind"],
    "properties": {
        "case": {"enum": ["a", "b", "c", "d", "e", "f", "g"]},
        "alphas": {"type": "array", "items": {"type": "number"}},
        "schemes": {"type": "array", "items": {"enum": list(ALL_SCHEMES)}},
        "kind": {"enum": ["temporal", "spatial", "decay"]},
        "M": {"type": "integer"},
        "M_list": {"type": "array", "items": {"type": "integer"}},
        "N": {"type": "integer"},
        "N_list": {"type": "array", "items": {"type": "integer"}},
        "t": {"type": "number"},
        "t_list": {"type": "array", "items": {"type": "number"}},
        "reference": {"enum": list(REFERENCES)},
        "corrected": {"type": "boolean"},
        "K_max": {"type": "integer"},
        "out": {"type": "string"},
        "format": {"enum": ["csv", "markdown"]},
    },
}


class ConfigError(ValueError):
    pass


@dataclass
class StudyConfig:
    case: str
    alphas: tuple
    schemes: tuple
    kind: str                         # temporal | spatial | decay
    M: int = 16
    M_list: tuple = (8, 16, 32, 64)
    N: int = 1000
    N_list: tuple = (10, 20, 40, 80, 160, 320)
    t: float = 0.1
    t_list: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    reference: str = None
    corrected: bool = True
    K_max: int = 255
    out: str = None
    format: str = "csv"

    def __post_init__(self):
        if self.kind not in ("temporal", "spatial", "decay"):
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if self.format not in ("csv", "markdown"):
            raise ConfigError(f"unknown format {self.format!r}")
        for s in self.schemes:
            if s.lower() not in ALL_SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.reference is None:
            self.reference = (
                "continuous_modal" if self.kind == "spatial" else "discrete_modal"
            )
        if self.reference not in REFERENCES:
            raise ConfigError(f"unknown reference {self.reference!r}")
        if self.kind == "spatial" and self.reference != "continuous_modal":
            raise ConfigError("spatial studies require the continuous_modal reference")
        if self.kind == "decay" and self.reference == "continuous_modal":
            raise ConfigError(
                "decay studies require discrete_modal or self_convergence"
            )
        # a repeated alpha or scheme would run a block twice, and "be" is
        # "BE"; a repeated rung would divide a stepwise rate by log(1)
        for key in ("alphas", "schemes", "M_list", "N_list", "t_list"):
            entries = getattr(self, key)
            if key == "schemes":
                entries = [s.lower() for s in entries]
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{key} repeats an entry: {list(getattr(self, key))}")
        # the reference is built before any TimeGrid checks its time
        for t in (self.t, *self.t_list):
            if not (math.isfinite(t) and t > 0.0):
                raise ConfigError(f"times must be finite and positive, not {t!r}")
        # every alpha against the case and the comparison schemes, and every
        # cell's mesh and time grid, are checked before any cell runs, by the
        # rules the cells apply
        try:
            for alpha in self.alphas:
                reference.get_case(self.case, alpha)
                for scheme in self.schemes:
                    if scheme.lower() in BASELINE_SCHEMES:
                        baselines.check_order(scheme.lower(), alpha)
            for _, _, M, t, N in _cells(self):
                meshfem.check_divisions(M)
                schemes.TimeGrid(t, N)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path, overrides=None):
        """Config from the JSON file ``path``, or from the flag defaults
        alphas [0.5] and schemes ["be", "sbd"] when ``path`` is None.
        ``overrides`` entries that are not None replace those keys. Values
        must have the schema's types; lists must not be empty."""
        if path is None:
            raw = {"alphas": [0.5], "schemes": ["be", "sbd"]}
        else:
            try:
                with open(path) as fh:
                    raw = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config {path!r} is not a JSON object")
            bad = set(raw) - set(STUDY_CONFIG_SCHEMA["properties"])
            if bad:
                raise ConfigError(f"unknown config keys: {sorted(bad)}")
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        missing = [key for key in STUDY_CONFIG_SCHEMA["required"] if key not in raw]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        for key, value in raw.items():
            _check_type(key, STUDY_CONFIG_SCHEMA["properties"][key], value)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


# JSON-schema type -> Python types; enum values are names, so strings
_JSON_TYPES = {
    "integer": int, "number": (int, float), "boolean": bool, "string": str, "array": (list, tuple),
}


def _check_type(key, spec, value):
    """ConfigError unless ``value`` has the type ``spec`` declares; a bool
    is no number, and an array is not empty."""
    kind = spec.get("type", "string")
    if not isinstance(value, _JSON_TYPES[kind]) or (
        isinstance(value, bool) and kind in ("integer", "number")
    ):
        raise ConfigError(f"config key {key!r} must be of type {kind}, got {value!r}")
    if kind == "array" and not value:
        raise ConfigError(f"config key {key!r} must not be an empty list")
    for item in value if kind == "array" else ():
        _check_type(key, spec["items"], item)


@dataclass
class ReportBlock:
    """One (alpha, scheme) ladder of a study."""

    alpha: float
    scheme: str
    labels: list
    err_l2: list
    err_h1: list                  # entries may be None
    rates: list                   # stepwise; first entry None
    summary_rate: float
    theoretical_rate: float


@dataclass
class ConvergenceReport:
    kind: str
    case: str
    reference: str
    normalized: bool
    blocks: list


def theoretical_rate(kind, scheme, case, alpha):
    """The rate each method is expected to show, paper-table style."""
    scheme = scheme.lower()
    if kind == "temporal":
        return {
            "be": 1.0,
            "sbd": 2.0,
            "l1": 2.0 - alpha,
            "zeng1": 2.0 - alpha,
            "zeng2": 2.0 - alpha,
            "cn": 3.0 - alpha,
        }[scheme]
    if kind == "spatial":
        return 2.0
    # decay exponent of the fixed-N error as t -> 0
    if case.v is not None:
        return case.q * alpha / 2.0
    if case.b is not None:
        return 1.0 + case.r * alpha / 2.0
    return float("nan")


def _stepwise_rates(errors, kind, xs):
    rates = [None]
    for k in range(1, len(errors)):
        if errors[k] <= 0.0 or errors[k - 1] <= 0.0:
            rates.append(float("nan"))
            continue
        if kind == "decay":
            decades = math.log10(xs[k - 1] / xs[k])
            rates.append(math.log10(errors[k - 1] / errors[k]) / decades)
        else:
            # refinement in N (temporal) or M (spatial); log2 for doubling
            ratio = xs[k] / xs[k - 1]
            rates.append(math.log(errors[k - 1] / errors[k]) / math.log(ratio))
    return rates


def _summary(rates):
    vals = [r for r in rates if r is not None and not math.isnan(r)]
    if not vals:
        return float("nan")
    if len(vals) == 1:
        return vals[0]
    return 0.5 * (vals[-1] + vals[-2])


def _run_scheme(sys, case, scheme, grid, corrected):
    scheme = scheme.lower()
    if scheme in PRIMARY_SCHEMES:
        cfg = schemes.SchemeConfig(
            stepper=scheme.upper(),
            equation="subdiffusion" if case.is_subdiffusion else "diffusion_wave",
            corrected=corrected,
        )
        return schemes.solve(sys, case, cfg, grid)
    return baselines.solve_baseline(sys, case, scheme, grid)


def _number_text(x):
    """x as ``:g`` prints it where that reads back as x, else its shortest
    round-trip form, so distinct times or alphas never share a label."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _cells(cfg):
    """(label, rate abscissa, M, t, N) of each cell of a ladder, in report order."""
    if cfg.kind == "temporal":
        return [(f"N={n}", float(n), cfg.M, cfg.t, n) for n in cfg.N_list]
    if cfg.kind == "decay":
        times = sorted(cfg.t_list, reverse=True)
        return [(f"t={_number_text(t)}", t, cfg.M, t, cfg.N) for t in times]
    return [(f"M={m}", float(m), m, cfg.t, cfg.N) for m in cfg.M_list]


def _reference(cfg, sys, case, scheme, t):
    """What a cell at time t is measured against: the truncated series, or,
    in the coordinates of the view ``sys``, the semidiscrete solution or the
    scheme's own run on 4 max(N_list) steps (temporal) or 16 N steps (decay)."""
    if cfg.reference == "continuous_modal":
        return reference.exact_solution(case, reference.modal_coefficients(case, cfg.K_max), t)
    if cfg.reference == "discrete_modal":
        return reference.discrete_reference(sys, case, t)
    fine = 4 * max(cfg.N_list) if cfg.kind == "temporal" else 16 * cfg.N
    return _run_scheme(sys, case, scheme, schemes.TimeGrid(t, fine), cfg.corrected).final


def measure(sys, final, ref):
    """(L2, H1-seminorm) error of ``final`` in the view ``sys``: in closed
    form against a series, else of the difference."""
    if isinstance(ref, reference.ExactSolution):
        return ref.error_norms(sys, final)
    return meshfem.l2_norm(sys, final - ref), meshfem.h1_seminorm(sys, final - ref)


def run_cell(cfg, case, scheme, M, t, N, refs):
    """One cell: ``scheme``'s run on N steps to t on mesh M, and its error.

    ``refs`` keeps the references across cells: a series or semidiscrete one
    per t serves every scheme (only spatial studies vary M, and they measure
    against the series), a self-convergence one is the scheme's own. A cell
    builds the reference it finds missing; ``run_study`` has built every
    semidiscrete one already, for all its times in one call.
    Returns the view the cell stepped in, the run's history and (L2, H1).
    """
    fem = meshfem.fem_system(M)
    sys = fem.modal if cfg.reference == "discrete_modal" else fem.sine
    key = (scheme, t) if cfg.reference == "self_convergence" else t
    if key not in refs:
        refs[key] = _reference(cfg, sys, case, scheme, t)
    hist = _run_scheme(sys, case, scheme, schemes.TimeGrid(t, N), cfg.corrected)
    return sys, hist, measure(sys, hist.final, refs[key])


def run_study(cfg):
    """Execute the configured study; one report with a block per combo."""
    blocks = []
    normalized = None
    cells = _cells(cfg)
    labels, xs = [c[0] for c in cells], [c[1] for c in cells]
    for alpha in cfg.alphas:
        case = reference.get_case(cfg.case, alpha)
        normalized = case.v_l2_norm > 0.0
        scale = case.v_l2_norm if normalized else 1.0
        refs = {}
        if cfg.reference == "discrete_modal":
            times = list(dict.fromkeys(c[3] for c in cells))
            sys = meshfem.fem_system(cfg.M).modal
            refs.update(zip(times, reference.discrete_reference(sys, case, times)))
        for scheme in cfg.schemes:
            errs, h1 = [], []
            for _, _, M, t, N in cells:
                e2, e1 = run_cell(cfg, case, scheme, M, t, N, refs)[2]
                errs.append(e2 / scale)
                h1.append(e1 / scale if cfg.reference == "continuous_modal" else None)
            rates = _stepwise_rates(errs, cfg.kind, xs)
            blocks.append(
                ReportBlock(
                    alpha,
                    scheme,
                    list(labels),
                    errs,
                    h1,
                    rates,
                    _summary(rates),
                    theoretical_rate(cfg.kind, scheme, case, alpha),
                )
            )
    return ConvergenceReport(cfg.kind, cfg.case, cfg.reference, bool(normalized), blocks)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def emit(report, fmt="csv"):
    """Render a report as CSV (columns label,error_l2,error_h1,rate) or markdown."""
    if fmt == "csv":
        lines = ["label,error_l2,error_h1,rate"]
        for blk in report.blocks:
            prefix = f"{blk.scheme},alpha={_number_text(blk.alpha)},"
            for lab, e2, e1, r in zip(blk.labels, blk.err_l2, blk.err_h1, blk.rates):
                lines.append(
                    f"{prefix}{lab}".replace(",", ";")
                    + f",{_fmt(e2)},{_fmt(e1)},{_fmt(r)}"
                )
        text = "\n".join(lines) + "\n"
    elif fmt == "markdown":
        lines = [
            f"## case ({report.case}) {report.kind} study "
            f"[reference: {report.reference}"
            + ("" if report.normalized else "; raw errors, data norm is zero")
            + "]",
            "",
        ]
        for blk in report.blocks:
            lines.append(f"### {blk.scheme.upper()}, alpha = {_number_text(blk.alpha)}")
            header = "| |" + "|".join(blk.labels) + "|rate|"
            sep = "|---" * (len(blk.labels) + 2) + "|"
            row = (
                "|err_L2|"
                + "|".join(f"{e:.3e}" for e in blk.err_l2)
                + f"|{blk.summary_rate:.2f} ({blk.theoretical_rate:.2f})|"
            )
            lines += [header, sep, row]
            if any(e is not None for e in blk.err_h1):
                lines.append(
                    "|err_H1|"
                    + "|".join("" if e is None else f"{e:.3e}" for e in blk.err_h1)
                    + "| |"
                )
            lines.append("")
        text = "\n".join(lines)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return text

