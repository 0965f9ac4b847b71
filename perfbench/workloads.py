"""The benchmark's workloads: job lists made from a seed, and their checks.

A job is one call into fracstep's public API; its check judges the output
against a computation made apart from the program (``oracles``) or against
a property the method must have. Nothing is compared with stored output.

The oracles, and with them scipy, are imported inside the checks, which run
after a round's time and memory are taken.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("ladders", "long_solve", "spatial")

# the meshes each workload builds during set-up (meshfem.fem_system)
MESHES = {"ladders": (16,), "long_solve": (64,), "spatial": (8, 16, 32, 64)}

N_LADDER = (10, 20, 40, 80, 160, 320)
T_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
GRID = {"sub": (0.1, 0.5, 0.9), "wave": (1.1, 1.5, 1.9)}
JITTER = 0.02  # seeds other than 0 move each temporal alpha by up to this

# summary-rate bands of the acceptance suite, per (scheme, regime)
RATE_BANDS = {
    ("be", "sub"): (0.9, 1.1),
    ("be", "wave"): (0.85, 1.1),
    ("sbd", "sub"): (1.85, 2.15),
    ("sbd", "wave"): (1.8, 2.15),
    ("l1", "sub"): (0.9, 1.1),
    ("zeng2", "sub"): (0.9, 1.1),
}
CORRECTED_MIN = 1.9           # corrected SBD on the rough sources of c and g
DECAY_A_TOL = 0.05            # case (a): exponent q alpha / 2 = alpha +- this
DECAY_MIN = 0.05              # every case: mean exponent over the 7 decades
REFERENCE_RTOL = 1e-8         # discrete_reference against eigh + erfcx
SPATIAL_BANDS = {"l2": (1.85, 2.15), "h1": (0.9, 1.2)}
LONG = dict(case="b", alpha=0.5, M=64, N=320, t=0.1)
LONG_H2 = 1.5                 # relative l2 nodal error <= LONG_H2 * h^2


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    """One operation: ``run`` calls fracstep, ``judge`` checks what it returned.

    A config with a ``kind`` is a study, run as ``fracstep study --config``
    with CSV out; any other config is one ``schemes.solve`` call.
    """

    name: str
    config: dict
    check: object
    out: object = field(default=None, repr=False)

    @property
    def is_study(self):
        return "kind" in self.config

    def path(self, out_dir, ext):
        return os.path.join(out_dir, f"{self.name}.{ext}")

    def prepare(self, out_dir):
        if self.is_study:
            cfg = dict(self.config, out=self.path(out_dir, "csv"), format="csv")
            with open(self.path(out_dir, "json"), "w") as fh:
                json.dump(cfg, fh)

    def run(self, fs, out_dir):
        if not self.is_study:
            self.out = _long_solve(fs, self.config)
            return
        rc = fs.cli.main(["study", "--config", self.path(out_dir, "json")])
        if rc != 0:
            raise RuntimeError(f"fracstep study exited with {rc}")

    def judge(self, fs, out_dir):
        if self.is_study:
            with open(self.path(out_dir, "csv")) as fh:
                self.out = parse_csv(fh.read())
        return self.check(self, fs)


def _long_solve(fs, c):
    sys_ = fs.meshfem.fem_system(c["M"])
    case = fs.reference.get_case(c["case"], c["alpha"])
    cfg = fs.schemes.SchemeConfig("SBD", "subdiffusion")
    return fs.schemes.solve(sys_, case, cfg, fs.schemes.TimeGrid(c["t"], c["N"]))


# --- rates -------------------------------------------------------------------

def parse_csv(text):
    """{(scheme, alpha): [(x, error_l2, error_h1 or None), ...]} from a study CSV."""
    lines = text.strip().split("\n")
    require(lines[0] == "label,error_l2,error_h1,rate", f"bad CSV header {lines[0]!r}")
    blocks = {}
    for line in lines[1:]:
        label, e2, e1, _ = line.split(",")
        scheme, alpha, x = label.split(";")
        key = (scheme, float(alpha.split("=")[1]))
        blocks.setdefault(key, []).append(
            (float(x.split("=")[1]), float(e2), float(e1) if e1 else None)
        )
    return blocks


def stepwise_rates(errors, xs, decay=False):
    """Observed order between neighbours: in N or M, or per decade of t."""
    require(all(e > 0.0 and math.isfinite(e) for e in errors), f"bad errors {errors}")
    log = math.log10 if decay else math.log
    out = []
    for k in range(1, len(errors)):
        step = log(xs[k - 1] / xs[k]) if decay else log(xs[k] / xs[k - 1])
        out.append(log(errors[k - 1] / errors[k]) / step)
    return out


def summary_rate(errors, xs, decay=False):
    """Mean of the last two stepwise rates, the report convention."""
    rates = stepwise_rates(errors, xs, decay)
    return 0.5 * (rates[-1] + rates[-2])


def ladder(job, scheme, alpha, xs):
    """(errors_l2, errors_h1) of one block, after checking its ladder."""
    rows = job.out.get((scheme, alpha))
    require(rows is not None, f"{job.name}: no {scheme} block at alpha={alpha}")
    got = [r[0] for r in rows]
    require(
        len(got) == len(xs) and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, xs)),
        f"{job.name}: ladder {got} is not {list(xs)}",
    )
    return [r[1] for r in rows], [r[2] for r in rows]


# --- checks ------------------------------------------------------------------

def check_temporal(job, fs):
    c = job.config
    alpha = c["alphas"][0]
    regime = "sub" if alpha < 1.0 else "wave"
    parts = []
    for scheme in c["schemes"]:
        errs, _ = ladder(job, scheme, alpha, c["N_list"])
        rate = summary_rate(errs, c["N_list"])
        if c["case"] in ("c", "g"):
            ok, band = rate >= CORRECTED_MIN, f">= {CORRECTED_MIN}"
        else:
            lo, hi = RATE_BANDS[(scheme, regime)]
            ok, band = lo <= rate <= hi, f"in [{lo}, {hi}]"
        require(ok, f"{job.name}: {scheme} rate {rate:.3f} not {band}")
        parts.append(f"{scheme} {rate:.3f}")
    return ", ".join(parts)


def check_decay(job, fs):
    c = job.config
    alpha = c["alphas"][0]
    ts = sorted(c["t_list"], reverse=True)
    parts = []
    for scheme in c["schemes"]:
        errs, _ = ladder(job, scheme, alpha, ts)
        # the fixed-N error bound C N^-p t^(q alpha / 2) vanishes as t -> 0
        # for every case; each design exponent is at least 0.125
        mean = math.log10(errs[0] / errs[-1]) / math.log10(ts[0] / ts[-1])
        require(mean >= DECAY_MIN, f"{job.name}: {scheme} mean exponent {mean:.3f} < {DECAY_MIN}")
        parts.append(f"{scheme} mean {mean:.3f}")
        if c["case"] == "a":
            # bubble data: q = 2, exponent q alpha / 2 = alpha
            rate = summary_rate(errs, ts, decay=True)
            require(
                abs(rate - alpha) <= DECAY_A_TOL,
                f"{job.name}: {scheme} exponent {rate:.3f} not {alpha} +- {DECAY_A_TOL}",
            )
            parts.append(f"{scheme} exponent {rate:.3f}")
    if c["case"] in ("a", "b") and alpha == 0.5:
        parts.append(check_reference(fs, c["case"], c["M"], ts))
    return ", ".join(parts)


def _oracle_rows(mesh, M):
    """Row of the oracle vector for each interior dof of the program's mesh."""
    import numpy as np

    from oracles import grid_index

    interior = np.flatnonzero(mesh.interior_map >= 0)
    rows = np.empty(len(interior), dtype=int)
    rows[mesh.interior_map[interior]] = grid_index(mesh.nodes[interior], M)
    return rows


def check_reference(fs, case_id, M, ts):
    """reference.discrete_reference against the eigh + erfcx solution at every t."""
    import numpy as np

    from oracles import SemidiscreteHalfOrder, bubble, half_strip

    sys_ = fs.meshfem.fem_system(M)
    rows = _oracle_rows(sys_.mesh, M)
    oracle = SemidiscreteHalfOrder(M, bubble if case_id == "a" else half_strip)
    case = fs.reference.get_case(case_id, 0.5)
    worst = 0.0
    for t in ts:
        want = oracle(t)[rows]
        got = fs.reference.discrete_reference(sys_, case, t)
        dev = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        require(dev <= REFERENCE_RTOL, f"reference ({case_id}) at t={t:g}: deviation {dev:.2e}")
        worst = max(worst, dev)
    return f"reference dev {worst:.1e}"


def check_spatial(job, fs):
    c = job.config
    xs = [float(m) for m in c["M_list"]]
    l2, h1 = ladder(job, c["schemes"][0], c["alphas"][0], xs)
    parts = []
    for norm, errs in (("l2", l2), ("h1", h1)):
        rate = summary_rate(errs, xs)
        lo, hi = SPATIAL_BANDS[norm]
        require(lo <= rate <= hi, f"{job.name}: {norm} rate {rate:.3f} not in [{lo}, {hi}]")
        parts.append(f"{norm} {rate:.3f}")
    return ", ".join(parts)


def check_long_solve(job, fs):
    """Final nodal values against the erfcx sine series; one step per level."""
    import numpy as np

    from oracles import half_strip_series

    c, hist = job.config, job.out
    steps = [s[0] for s in hist.solve_stats]
    require(steps == list(range(1, c["N"] + 1)), f"{job.name}: steps recorded {len(steps)} != {c['N']}")
    M = c["M"]
    rows = _oracle_rows(fs.meshfem.fem_system(M).mesh, M)
    g = np.arange(1, M) / M
    exact = half_strip_series(g, g, c["t"]).ravel()[rows]
    rel = float(np.linalg.norm(hist.final - exact) / np.linalg.norm(exact))
    bound = LONG_H2 / M ** 2
    require(rel <= bound, f"{job.name}: nodal error {rel:.3e} > {bound:.3e}")
    return f"nodal error {rel:.3e} <= {bound:.3e}"


# --- job lists -----------------------------------------------------------------

def ladder_alphas(seed):
    """Temporal orders per case. Seed 0 is the paper's grid; any other seed
    moves each order by up to JITTER, inside the range where the rate bands
    hold (checked from 0.08 to 0.92 and 1.08 to 1.92)."""
    rng = random.Random(seed)
    out = {}
    for case in ("a", "b", "d", "e"):
        grid = GRID["sub" if case in ("a", "b") else "wave"]
        out[case] = [a if seed == 0 else round(a + rng.uniform(-JITTER, JITTER), 3) for a in grid]
    return out


def _study(name, check, **cfg):
    return Job(name, cfg, check)


def jobs(workload, seed):
    if workload == "ladders":
        out = []
        temporal = dict(kind="temporal", M=16, N_list=list(N_LADDER), t=0.1,
                        reference="discrete_modal", corrected=True)
        for case, alphas in ladder_alphas(seed).items():
            for a in alphas:
                out.append(_study(f"temporal-{case}-{a:g}", check_temporal, case=case,
                                  alphas=[a], schemes=["be", "sbd"], **temporal))
        out.append(_study("temporal-b-baselines", check_temporal, case="b", alphas=[0.5],
                          schemes=["l1", "zeng2"], **temporal))
        out.append(_study("temporal-c-corrected", check_temporal, case="c", alphas=[0.5],
                          schemes=["sbd"], **temporal))
        out.append(_study("temporal-g-corrected", check_temporal, case="g", alphas=[1.5],
                          schemes=["sbd"], **temporal))
        for case in "abcdefg":
            out.append(_study(f"decay-{case}", check_decay, case=case,
                              alphas=[0.5 if case in "abc" else 1.5], schemes=["be", "sbd"],
                              kind="decay", M=16, N=10, t_list=list(T_LADDER),
                              reference="discrete_modal", corrected=True))
        return out
    if workload == "long_solve":
        return [Job("long-solve", dict(LONG), check_long_solve)]
    if workload == "spatial":
        return [_study("spatial-e", check_spatial, case="e", alphas=[1.5], schemes=["sbd"],
                       kind="spatial", M_list=[8, 16, 32, 64], N=100, t=0.1,
                       reference="continuous_modal", K_max=255, corrected=True)]
    raise ValueError(f"unknown workload {workload!r}")
