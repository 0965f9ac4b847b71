"""Shows that no check of the benchmark is vacuous: each one passes on the
program's real output and rejects a wrong answer.

    python3 perfbench/selftest.py

Runs the spatial job and small versions of the others (about 30 s) and exits 1 if any check
passes a wrong answer or fails a right one.
"""

from __future__ import annotations

import copy
import sys
import types

import run
import workloads as W


def expect(label, should_pass, fn):
    try:
        detail = fn()
        passed = True
    except W.CheckFailed as exc:
        detail = str(exc)
        passed = False
    ok = passed == should_pass
    verdict = "passes" if passed else "rejects"
    print(f"[{'ok' if ok else 'WRONG'}] {label}: check {verdict} ({detail})")
    return ok


def study(fs, out_dir, name, check, **cfg):
    """A study job run through the CLI, its CSV parsed but not yet judged."""
    job = W.Job(name, cfg, check)
    job.prepare(out_dir)
    job.run(fs, out_dir)
    with open(job.path(out_dir, "csv")) as fh:
        job.out = W.parse_csv(fh.read())
    return job


def relabel(job, check, **changes):
    """A copy of a finished job whose output is judged under another config."""
    return W.Job(job.name, dict(job.config, **changes), check, copy.deepcopy(job.out))


def main():
    fs = run.import_fracstep()
    out_dir = run.OUT / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []

    temporal = dict(kind="temporal", M=16, N_list=list(W.N_LADDER), t=0.1,
                    reference="discrete_modal", corrected=True)
    be = study(fs, out_dir, "st-temporal-be", W.check_temporal, case="a", alphas=[0.5],
               schemes=["be"], **temporal)
    results.append(expect("BE ladder, BE band", True, lambda: be.check(be, fs)))
    as_sbd = relabel(be, W.check_temporal, schemes=["sbd"])
    as_sbd.out = {("sbd", 0.5): be.out[("be", 0.5)]}
    results.append(expect("BE ladder judged against the SBD band", False,
                          lambda: as_sbd.check(as_sbd, fs)))

    decay = study(fs, out_dir, "st-decay-a", W.check_decay, case="a", alphas=[0.5],
                  schemes=["be"], kind="decay", M=16, N=10, t_list=list(W.T_LADDER),
                  reference="discrete_modal", corrected=True)
    results.append(expect("case (a) decay ladder", True, lambda: decay.check(decay, fs)))
    tilted = relabel(decay, W.check_decay)
    tilted.out = {k: [(t, e * t ** -0.1, h) for t, e, h in rows] for k, rows in decay.out.items()}
    results.append(expect("case (a) decay exponent off by 0.1", False,
                          lambda: tilted.check(tilted, fs)))
    flat = relabel(decay, W.check_decay, case="c")
    flat.out = {k: [(t, 1e-3, h) for t, e, h in rows] for k, rows in decay.out.items()}
    results.append(expect("decay ladder with an error that does not fall", False,
                          lambda: flat.check(flat, fs)))

    good_ref = fs.reference.discrete_reference
    bumped = types.SimpleNamespace(**vars(fs))
    bumped.reference = types.SimpleNamespace(
        get_case=fs.reference.get_case,
        discrete_reference=lambda *a, **k: good_ref(*a, **k) * (1.0 + 1e-6),
    )
    for case_id in ("a", "b"):
        results.append(expect(f"case ({case_id}) discrete reference", True,
                              lambda: W.check_reference(fs, case_id, 16, W.T_LADDER)))
        results.append(expect(f"case ({case_id}) reference perturbed by 1e-6", False,
                              lambda: W.check_reference(bumped, case_id, 16, W.T_LADDER)))

    spatial = study(fs, out_dir, "st-spatial", W.check_spatial,
                    **W.jobs("spatial", 0)[0].config)
    results.append(expect("spatial ladder", True, lambda: spatial.check(spatial, fs)))
    first = relabel(spatial, W.check_spatial)
    first.out = {k: [(m, e * m, h) for m, e, h in rows] for k, rows in spatial.out.items()}
    results.append(expect("spatial ladder with L2 rate 1", False, lambda: first.check(first, fs)))

    cfg = dict(W.LONG, M=16, N=100)
    long = W.Job("st-long", cfg, W.check_long_solve)
    long.run(fs, out_dir)
    results.append(expect("long solve at M=16", True, lambda: long.check(long, fs)))
    hist = long.out
    off = copy.copy(hist)
    off.U = hist.U.copy()
    off.U[-1] += 1e-2 * abs(hist.final).max()
    wrong = W.Job("st-long", cfg, W.check_long_solve, off)
    results.append(expect("final state moved by 1% of its maximum", False,
                          lambda: wrong.check(wrong, fs)))
    short = copy.copy(hist)
    short.solve_stats = hist.solve_stats[:-1]
    skipped = W.Job("st-long", cfg, W.check_long_solve, short)
    results.append(expect("one step missing from the record", False,
                          lambda: skipped.check(skipped, fs)))

    print(f"{sum(results)}/{len(results)} checks behave as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
