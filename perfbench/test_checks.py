"""Tests of the benchmark's own oracles and checks.

Each oracle reproduces a known value, and each check rejects an output that
was perturbed on purpose, so a check that passes has been seen to fail.
Run from the repository root:

    python3 -m pytest perfbench -q
"""

import csv
import hashlib
import io
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from quantred import actions as ta  # noqa: E402
from quantred import asymptotics, models, strata  # noqa: E402

import make_rank2_reference  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# oracles against known values


def test_pattern_moment_known_values():
    # vol CP^n = (2 pi)^n / n!, and int_CP^1 |z_0|^2 = pi
    assert oracles.pattern_moment(((0, 1, 2),), (0, 0, 0), [1]) == pytest.approx((2 * math.pi) ** 2 / 2)
    assert oracles.pattern_moment(((0, 1),), (1, 0), [1]) == pytest.approx(math.pi)
    assert oracles.pattern_moment(((0, 1),), (0, 0, 1), [1]) == 0.0


def test_invariant_monomials_known_bases():
    assert oracles.invariant_monomials([2], [1], [[1, -1, 0]], [0], 4, "plain") == [(0, 0, 4), (1, 1, 2), (2, 2, 0)]
    assert oracles.invariant_monomials([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"], 2, "halfform") == [(0, 1, 1, 0)]
    assert oracles.invariant_monomials([1, 1], [1, 1], [[1, 0, -1, 0]], ["1/2"], 3, "plain") == []


def test_e2_residual_law_matches_program():
    assert oracles.e2_residual_law(1) == pytest.approx(math.sqrt(2 * math.pi))
    e2 = ta.make_action(models.make_model([2], [1]), [[1, -1, 0]])
    st = strata.analyze(e2)
    full = [s for s in st.strata if s.isotropy.is_full][0]
    for k in (4, 10):
        assert asymptotics.residual_II(e2, full, k, "plain", strat=st) == pytest.approx(oracles.e2_residual_law(k), rel=1e-9)


def test_rank1_orbit_volume_gives_e1_limit():
    # E1 at |z_0| = |z_1|: vol = 2 sqrt(2) pi over |Gamma| = 2, limit 2^-1/2 vol = pi
    z = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    vol = oracles.rank1_orbit_volume([1, -1], [slice(0, 2)], [1], z) / 2
    assert 2.0 ** -0.5 * vol == pytest.approx(math.pi)


def test_tensor_grid_reproduces_e1_frozen_law():
    # the rank-2 reference's quadrature, run on E1 where I_k is known exactly
    e1 = ta.make_action(models.make_model([1], [1]), [[1, -1]])
    lab = strata.analyze(e1).strata[0]
    x = lab.representative
    vol = ta.geometric_orbit_volume(e1, x, lab.isotropy)
    for k in (4, 10):
        integral = oracles.tensor_grid_integral(make_rank2_reference.integrand_for(e1, x, k), 1, 1.5, 801)
        assert vol * math.sqrt(k / (2 * math.pi)) * integral == pytest.approx(oracles.e1_density_I_law(k), rel=1e-8)


def test_generalized_defect_and_power_fit():
    assert oracles.generalized_defect(np.diag([1.0, 1.5]), np.eye(2)) == pytest.approx(0.5)
    ks = np.array([10.0, 20.0, 40.0])
    assert oracles.power_law_exponent(ks, 3.0 / ks) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# checks reject perturbed outputs


def tamper(out_dir, name, edit, rehash=True):
    """Apply `edit` to a parsed output file and, by default, fix the manifest."""
    path = os.path.join(out_dir, name)
    with open(path) as fh:
        text = fh.read()
    if name.endswith(".json"):
        obj = json.loads(text)
        edit(obj)
        data = json.dumps(obj, sort_keys=True, indent=1)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        edit(rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        data = buf.getvalue()
    with open(path, "w") as fh:
        fh.write(data)
    if rehash:
        man_path = os.path.join(out_dir, "run_manifest.json")
        with open(man_path) as fh:
            manifest = json.load(fh)
        manifest["files"][name] = hashlib.sha256(data.encode()).hexdigest()
        with open(man_path, "w") as fh:
            json.dump(manifest, fh)


def problems_of(workload):
    return [p for op in workload.check(None) for p in op.problems]


def run_once(workload):
    workload.prepare()
    workload.body(workload.start_round())
    assert problems_of(workload) == []
    return workload


class SmallE2(workloads.E2Pipeline):
    KS = [2, 4]
    SAMPLES = 4000


class SmallE3MC(workloads.E3HalfformMC):
    KS = [2, 4]
    SAMPLES = 4000


class SmallE3Grid(workloads.E3UnitarityGrid):
    K_COUNT = 4


def _set(path, value):
    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value(obj[last])
    return edit


E2_TAMPERS = [
    ("gram_up_2.json", _set(("1", "matrix_re", 0, 0), lambda v: v * (1 + 1e-6)), "Dirichlet moment"),
    ("gram_up_4.json", _set(("1", "matrix_re", 0, 1), lambda v: 1e-3), "not diagonal"),
    ("gram_up_4.json", _set(("2", "matrix_re", 1, 1), lambda v: v * (1 + 1e-6)), "Dirichlet moment"),
    ("strata.json", _set(("strata", 1, "isotropy", "finite_part"), lambda v: 3), "strata.json"),
    ("consistency.json", _set(("reports", 0, "max_nsigma"), lambda v: 7.0), "max nsigma"),
    ("curve_fits.json", _set((1, "limit"), lambda v: v * 1.01), "curve_fits.json"),
]


@pytest.fixture(scope="module")
def e2_run(tmp_path_factory):
    return run_once(SmallE2(5, str(tmp_path_factory.mktemp("e2"))))


@pytest.mark.parametrize("name, edit, message", E2_TAMPERS)
def test_e2_checks_reject(e2_run, name, edit, message):
    out_dir = e2_run.out_dirs[0]
    backup = {n: open(os.path.join(out_dir, n)).read() for n in (name, "run_manifest.json")}
    try:
        tamper(out_dir, name, edit)
        assert any(message in p for p in problems_of(e2_run))
    finally:
        for n, text in backup.items():
            with open(os.path.join(out_dir, n), "w") as fh:
                fh.write(text)
    assert problems_of(e2_run) == []


def test_e2_csv_checks_reject(e2_run):
    out_dir = e2_run.out_dirs[0]
    originals = {n: open(os.path.join(out_dir, n)).read()
                 for n in ("curves.csv", "defects.csv", "run_manifest.json")}

    def restore():
        for n, text in originals.items():
            with open(os.path.join(out_dir, n), "w") as fh:
                fh.write(text)

    def scale_row(quantity, index, factor):
        def edit(rows):
            hits = [r for r in rows[1:] if r[0] == quantity]
            hits[index][3] = repr(float(hits[index][3]) * factor)
        return edit

    for edit, message in ((scale_row("II", 0, 1 + 1e-6), "closed form"),
                          (scale_row("I", -1, 0.5), "does not approach")):
        tamper(out_dir, "curves.csv", edit)
        assert any(message in p for p in problems_of(e2_run))
        restore()

    def bump_defect(rows):
        rows[1][3] = repr(float(rows[1][3]) + 0.01)

    tamper(out_dir, "defects.csv", bump_defect)
    assert any("recomputed" in p for p in problems_of(e2_run))
    restore()
    tamper(out_dir, "defects.csv", bump_defect, rehash=False)
    assert any("sha256" in p for p in problems_of(e2_run))
    restore()
    assert problems_of(e2_run) == []


def test_e3_mc_checks_reject(tmp_path):
    w = run_once(SmallE3MC(5, str(tmp_path)))
    out_dir = w.out_dirs[0]

    def shift_by_sigma(a, b, nsig):
        def edit(obj):
            block = obj["1"]
            block["matrix_re"][a][b] += nsig * block["stderr"][a][b]
        return edit

    for name, (a, b) in (("gram_up_4.json", (0, 0)), ("gram_up_4.json", (0, 1)), ("gram_down_4.json", (1, 1))):
        tamper(out_dir, name, shift_by_sigma(a, b, 2 * workloads.MC_NSIGMA))
        assert any(f"entry ({a},{b})" in p for p in problems_of(w))
        w.body(w.start_round())
    assert problems_of(w) == []


def test_e3_grid_checks_reject(tmp_path):
    w = run_once(SmallE3Grid(0, str(tmp_path)))
    plain, half = w.out_dirs

    def flatten_tail(rows):
        rows[-1][3] = rows[-2][3]

    def shrink(rows):
        for r in rows[1:]:
            r[3] = repr(float(r[3]) / 10)

    tamper(half, "defects.csv", flatten_tail)
    assert any("does not decay" in p for p in problems_of(w))
    tamper(plain, "defects.csv", shrink)
    assert any("plain defect" in p for p in problems_of(w))


def test_rank2_checks():
    w = workloads.Rank2Density(0, None)
    ref = w.ref
    st = SimpleNamespace(strata=[None] * 3, pieces={0: [None] * 12})
    x = np.asarray(ref["point_re"]) + 1j * np.asarray(ref["point_im"])
    assert [op.problems for op in w.check((st, x, ref["I"]))] == [[]] * 4
    perturbed = [v * (1 + 10 * workloads.RANK2_RTOL) for v in ref["I"]]
    assert all(op.problems and op.known_fault for op in w.check((st, x, perturbed))[1:])
    # the values the m >= 2 radius loop returns today
    today = w.check((st, x, [25.2786, 12.1792, 1.03478]))
    assert [bool(op.problems) for op in today] == [False, True, True, True]
    assert w.check((st, x + 1e-9, ref["I"]))[0].problems
    st_bad = SimpleNamespace(strata=[None] * 3, pieces={0: [None] * 11})
    assert w.check((st_bad, x, ref["I"]))[0].problems
