"""Convergence-study orchestration: run solvers over refinement ladders,
estimate rates, and emit CSV/markdown reports.

Study kinds:

* ``temporal``: fix the mesh and evaluation time, double the step count;
  errors are measured against the semidiscrete (discrete-modal) reference so
  the mesh never pollutes the temporal rate.
* ``spatial``: fix a fine step count, refine the mesh; errors are measured
  against the truncated continuous series solution in L2 and H1.
* ``decay``: fix the step count and walk the evaluation time down by decades
  to expose the data-regularity exponent of the error constant.

Temporal and decay studies against the discrete-modal reference hold the
eigensystem of the mesh's pencil anyway, so they step, take the reference and
measure errors in the modal view of the system (see :mod:`meshfem`), with no
basis product and no CG. All other runs work in nodal coordinates with CG.

Reports are deterministic: fixed iteration orders, no randomness, and float
formatting with 17 significant digits so CSV round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
        for key in ("M_list", "N_list", "t_list"):
            ladder = getattr(self, key)
            if len(set(ladder)) != len(ladder):
                raise ConfigError(f"{key} repeats an entry: {list(ladder)}")

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
    metadata: dict = field(default_factory=dict)


def theoretical_rate(kind, scheme, case, alpha, norm="l2"):
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
        return 2.0 if norm == "l2" else 1.0
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


def _temporal_block(cfg, case, sys, scheme, ref):
    """Errors at cfg.t over N_list; a ``ref`` of None means self-convergence."""
    t = cfg.t
    if ref is None:
        grid = schemes.TimeGrid(t, 4 * max(cfg.N_list))
        ref = _run_scheme(sys, case, scheme, grid, cfg.corrected).final

    def one(N):
        hist = _run_scheme(sys, case, scheme, schemes.TimeGrid(t, N), cfg.corrected)
        return meshfem.l2_norm(sys, hist.final - ref)

    return list(cfg.N_list), [one(N) for N in cfg.N_list]


def _decay_block(cfg, case, sys, scheme, ts, refs):
    """Errors at fixed N over the times ts; a ``refs`` entry of None means
    self-convergence."""

    def one(t, ref):
        hist = _run_scheme(sys, case, scheme, schemes.TimeGrid(t, cfg.N), cfg.corrected)
        if ref is None:
            grid = schemes.TimeGrid(t, 16 * cfg.N)
            ref = _run_scheme(sys, case, scheme, grid, cfg.corrected).final
        return meshfem.l2_norm(sys, hist.final - ref)

    return ts, [one(t, ref) for t, ref in zip(ts, refs)]


def _spatial_block(cfg, case, sol, scheme):
    def one(M):
        sys = meshfem.fem_system(M)
        hist = _run_scheme(sys, case, scheme, schemes.TimeGrid(cfg.t, cfg.N), cfg.corrected)
        return meshfem.error_norms(sys, hist.final, sol, sol.grad)

    l2, h1 = zip(*[one(M) for M in cfg.M_list])
    return list(cfg.M_list), list(l2), h1


def _stepping_system(cfg, sys):
    """The system a temporal or decay study steps on: its modal view against
    the discrete-modal reference, else ``sys`` itself."""
    return reference.modal_view(sys) if cfg.reference == "discrete_modal" else sys


def run_study(cfg):
    """Execute the configured study; one report with a block per combo."""
    blocks = []
    normalized = None
    sys = None
    if cfg.kind in ("temporal", "decay"):
        sys = _stepping_system(cfg, meshfem.fem_system(cfg.M))
    for alpha in cfg.alphas:
        case = reference.get_case(cfg.case, alpha)
        norm = case.v_l2_norm if case.v is not None else 0.0
        normalized = norm > 0.0
        # one reference per alpha (and t) serves every scheme
        if cfg.kind == "spatial":
            exp = reference.modal_coefficients(case, cfg.K_max)
            sol = reference.exact_solution(case, exp, cfg.t)
        else:
            # None: each scheme converges against its own finer run
            discrete = cfg.reference == "discrete_modal"
            ts = [cfg.t] if cfg.kind == "temporal" else sorted(cfg.t_list, reverse=True)
            refs = [reference.discrete_reference(sys, case, t) if discrete else None for t in ts]
        for scheme in cfg.schemes:
            if cfg.kind == "temporal":
                xs, errs = _temporal_block(cfg, case, sys, scheme, refs[0])
                labels = [f"N={n}" for n in xs]
                h1 = [None] * len(errs)
            elif cfg.kind == "decay":
                xs, errs = _decay_block(cfg, case, sys, scheme, ts, refs)
                labels = [f"t={t:g}" for t in xs]
                h1 = [None] * len(errs)
            else:
                xs, errs, h1 = _spatial_block(cfg, case, sol, scheme)
                labels = [f"M={m}" for m in xs]
            if normalized:
                errs = [e / norm for e in errs]
                h1 = [None if e is None else e / norm for e in h1]
            rate_xs = xs if cfg.kind == "decay" else [float(x) for x in xs]
            rates = _stepwise_rates(errs, cfg.kind, rate_xs)
            blocks.append(
                ReportBlock(
                    alpha,
                    scheme,
                    labels,
                    errs,
                    list(h1),
                    rates,
                    _summary(rates),
                    theoretical_rate(cfg.kind, scheme, case, alpha),
                )
            )
    meta = {
        "case": cfg.case,
        "kind": cfg.kind,
        "reference": cfg.reference,
        "corrected": cfg.corrected,
        "M": cfg.M if cfg.kind != "spatial" else list(cfg.M_list),
        "N": cfg.N if cfg.kind != "temporal" else list(cfg.N_list),
        "t": cfg.t if cfg.kind != "decay" else list(cfg.t_list),
        "normalized": bool(normalized),
    }
    return ConvergenceReport(cfg.kind, cfg.case, cfg.reference, bool(normalized), blocks, meta)


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
            prefix = f"{blk.scheme},alpha={blk.alpha:g},"
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
            lines.append(f"### {blk.scheme.upper()}, alpha = {blk.alpha:g}")
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

