import io
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from quantred import cli


def test_validate_preset_ok():
    scn = cli.validate({"preset": "E1", "k_list": [2, 4]})
    assert scn.model.factors == (1,)
    assert scn.action.rank == 1


def test_validate_collects_errors():
    cfg = {
        "model": {"factors": [2], "bundle_degrees": [1]},
        "action": {"rank": 1, "weights": [[[1, -1, 0]]], "shift": ["1/3"]},
        "k_list": [4],
        "twist": "halfform",
    }
    with pytest.raises(cli.ConfigError) as err:
        cli.validate(cfg)
    msg = str(err.value)
    assert "metaplectic parity" in msg
    assert "lift integrality" in msg
    with pytest.raises(cli.ConfigError) as err:
        cli.validate({"preset": "E1", "k_list": ["a"], "norm_defs": ["x"], "seed": "x"})
    msg = str(err.value)
    assert "k_list" in msg and "norm_defs" in msg and "seed" in msg
    # a half-form degree k * l_j - (n_j + 1) / 2 below 0 (CP^3 at k = 1) leaves no sections to twist
    with pytest.raises(cli.ConfigError) as err:
        cli.validate({"model": {"factors": [3], "bundle_degrees": [1]}, "action": {"weights": [[1, -1, 0, 0]]},
                      "k_list": [1, 3], "twist": "halfform"})
    assert str(err.value).startswith("k_list: negative twisted degree") and "k=[1]" in str(err.value)
    # integer fields take ints only (no strings, bools or floats, so 2.5 is not
    # truncated to 2), and the message starts with the field
    for field, value in (("k_list", 2), ("k_list", [0, 2]), ("k_list", [-2, 2]), ("k_list", [True]),
                         ("k_list", [2.5]), ("norm_defs", [True]), ("norm_defs", [1.0]), ("norm_defs", 1),
                         ("norm_defs", []), ("norm_defs", [1, 1]),
                         ("seed", -1), ("seed", 1.0), ("seed", True), ("out", 5), ("out", ""),
                         ("preset", ["E1"]), ("quantities", 5), ("quantities", "gram"), ("quantities", [])):
        cfg = {"preset": "E1", "k_list": [2], field: value}
        with pytest.raises(cli.ConfigError) as err:
            cli.validate(cfg)
        assert str(err.value).startswith(f"{field}:")
        assert "'g'" not in str(err.value)  # a string of quantities is not a list of letters
    for config in ([{"preset": "E1"}], "[1, 2]", 5):
        with pytest.raises(cli.ConfigError) as err:
            cli.validate(config)
        assert str(err.value).startswith("config:")


def test_validate_empty_k():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate({"preset": "E1", "k_list": []})
    assert "k_list" in str(err.value)


def test_validate_quad_fields(tmp_path):
    assert cli.validate({"preset": "E1", "k_list": [2], "quad": {"method": "grid"}}).quad.method == "grid"
    bad = [
        ({"method": "MC"}, "quad.method"),
        ({"samples": 0}, "quad.samples"),
        ({"blocks": 2.5}, "quad.blocks"),
        ({"grid_order": -8}, "quad.grid_order"),
        ({"seed": "x"}, "quad.seed"),
        ({"seed": -1}, "quad.seed"),
        ({"seed": 2.0}, "quad.seed"),
        ([1], "quad: must be an object"),
        ({"stderr_target": 0.01}, "quad.stderr_target: unknown config key"),
        ({"method": "mc", "sample": 100}, "quad.sample: unknown config key"),
    ]
    for quad, name in bad:
        with pytest.raises(cli.ConfigError) as err:
            cli.validate({"preset": "E1", "k_list": [2], "quad": quad})
        assert name in str(err.value)
    with pytest.raises(cli.ConfigError) as err:
        cli.validate({"preset": "E1", "k_list": [2], "sed": 3, "norm_def": [1]})
    assert "sed: unknown config key" in str(err.value) and "norm_def: unknown config key" in str(err.value)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"preset": "E1", "k_list": [2], "quad": {"method": "MC"}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_run_density_on_q2_stratum_for_any_seed(tmp_path):
    """CP^1 x CP^2 under weights (1, 0; -1, 0, 1) has an open stratum with a
    two-dimensional slice, which is sampled by rejection.  The density
    quantity needs one point there; seed 0 draws a rejected point and seed 1
    an accepted one, and both runs succeed with finite curves."""
    from quantred import strata

    cfg = {
        "model": {"factors": [1, 2], "bundle_degrees": [1, 1]},
        "action": {"rank": 1, "weights": [[1, 0, -1, 0, 1]], "shift": ["0"]},
        "k_list": [2],
    }
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(cfg))
    action = cli.validate(cfg).action
    st = strata.analyze(action)
    lab = st.open_stratum()
    i = st.strata.index(lab)
    accepted = []
    for seed in (0, 1):
        # the draw cli.run makes for the density point of stratum i
        _, wts = strata.sample_stratum(action, lab, 1, seed=seed + 17 * i)
        accepted.append(wts[0] > 0)
        out = tmp_path / f"s{seed}"
        rc = cli.main(["run", "--config", str(path), "--only", "density", "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        rows = (out / "curves.csv").read_text().strip().splitlines()[1:]
        assert any(r.startswith(f"I,stratum_{i},") for r in rows)
        assert all(np.isfinite(float(r.split(",")[3])) for r in rows)
    assert accepted == [False, True]


def test_validate_flat_and_block_weights():
    a = cli.validate({"preset": "E3", "k_list": [2]}).action
    b = cli.validate({
        "model": {"factors": [1, 1], "bundle_degrees": [1, 1]},
        "action": {"rank": 1, "weights": [[1, 0, -1, 0]], "shift": ["1/2"]},
        "k_list": [2],
    }).action
    assert a.weights == b.weights and a.shift == b.shift


def test_describe_warns_on_empty_space(e1, capsys):
    scn = cli.validate({"preset": "E1", "k_list": [2, 3]})
    cli.describe(scn)
    out = capsys.readouterr().out
    assert "no invariant sections" in out
    assert "dim H^G = 1" in out
    assert "Z_2" in out


def test_describe_halfform_limit_is_one(capsys):
    """Under the half-form twist the density is J_k, whose limit is 1 on every stratum."""
    cli.describe(cli.validate({"preset": "E3", "k_list": [2], "twist": "halfform"}))
    out = capsys.readouterr().out
    assert "J_k limit 1" in out and "I_k limit" not in out
    cli.describe(cli.validate({"preset": "E3", "k_list": [2]}))
    assert "I_k limit in [" in capsys.readouterr().out


def test_run_builds_each_level_slice_once(tmp_path, monkeypatch):
    """A run builds one level slice per stratum and per extra piece, all inside
    strata.analyze; the Gram, density and sampling routes read lab.level_slice."""
    import sys

    from quantred import strata

    st = strata.analyze(cli.validate({"preset": "E2", "k_list": [2]}).action)
    callers = []
    original = strata.make_level_slice

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(strata, "make_level_slice", counted)
    assert cli.main(["run", "--preset", "E2", "--k", "2,4,8", "--out", str(tmp_path / "e2")]) == 0
    assert len(callers) == len(st.strata) + sum(map(len, st.pieces.values())) == 5
    assert set(callers) <= {"analyze", "_build_piece"}


def test_run_solves_each_slice_box_once(tmp_path, monkeypatch):
    """An MC Gram run on CP^1 x CP^2, whose open stratum has a q = 2 slice,
    builds the box of each q != 1 slice once, inside strata.analyze (LPs only
    for q >= 2); the reduced Grams at every k and norm definition sample
    from the kept box."""
    from quantred import strata

    cfg = {"model": {"factors": [1, 2], "bundle_degrees": [1, 1]},
           "action": {"rank": 1, "weights": [[1, 0, -1, 0, 1]]},
           "k_list": [2, 4, 8], "quantities": ["gram"], "quad": {"method": "mc", "samples": 2560},
           "out": str(tmp_path / "g")}
    scn = cli.validate(cfg)
    st = strata.analyze(scn.action)
    slices = [lab.level_slice for lab in st.strata] + [p.level_slice for ps in st.pieces.values() for p in ps]
    calls = []
    original = strata._slice_box

    def counted(p0, basis):
        calls.append(basis.shape[0])
        return original(p0, basis)

    monkeypatch.setattr(strata, "_slice_box", counted)
    cli.run(scn)
    assert sorted(calls) == sorted(sl.q for sl in slices if sl.q != 1)
    assert calls.count(2) == 1


def test_run_deterministic_and_flags(tmp_path):
    cfg = {
        "preset": "E1",
        "k_list": [2, 4],
        "quad": {"samples": 20000, "method": "mc"},
        "seed": 13,
        "quantities": ["strata", "gram", "unitarity", "density"],
        "out": str(tmp_path / "a"),
    }
    scn = cli.validate(cfg)
    m1 = cli.run(scn)
    assert scn.quad == cli.validate(cfg).quad  # the run seeds a copy, not the scenario
    cfg2 = dict(cfg)
    cfg2["out"] = str(tmp_path / "b")
    m2 = cli.run(cli.validate(cfg2))
    assert m1["files"] == m2["files"]  # byte-identical outputs for equal seeds
    names = set(os.listdir(tmp_path / "a"))
    assert "consistency.json" not in names  # quantity flag off -> file absent
    assert {"strata.json", "defects.csv", "curves.csv", "gram_up_2.json"} <= names
    with open(tmp_path / "a" / "defects.csv") as fh:
        content = fh.read()
    assert "defect" in content and "2,plain" in content


def test_run_full_smoke_e2(tmp_path):
    cfg = {
        "preset": "E2",
        "k_list": [2, 4],
        "quad": {"samples": 30000, "method": "exact"},
        "seed": 3,
        "out": str(tmp_path / "r"),
    }
    manifest = cli.run(cli.validate(cfg))
    assert "consistency.json" in manifest["files"]
    with open(tmp_path / "r" / "consistency.json") as fh:
        rep = json.load(fh)
    assert all(r["max_nsigma"] < 4.0 for r in rep["reports"])
    # defect_B-style column present and finite
    with open(tmp_path / "r" / "defects.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) >= 3
    assert all(np.isfinite(float(r.split(",")[3])) for r in rows[1:])


def test_run_ii_rows_state_their_error(tmp_path):
    """The II rows of curves.csv carry the residuals' quadrature error plus
    a rounding floor, which covers their distance from E2's closed form
    2 sqrt(2 pi k) / (k + 1)."""
    cfg = {"preset": "E2", "k_list": [2, 8, 32], "quantities": ["density"], "out": str(tmp_path / "ii")}
    cli.run(cli.validate(cfg))
    with open(tmp_path / "ii" / "curves.csv") as fh:
        rows = [r.split(",") for r in fh.read().strip().splitlines()[1:] if r.startswith("II,")]
    assert [int(r[2]) for r in rows] == [2, 8, 32]
    for _, _, k, value, stderr in rows:
        k, value, stderr = int(k), float(value), float(stderr)
        assert 0.0 < stderr < 1e-6 * value
        assert abs(value - 2.0 * np.sqrt(2.0 * np.pi * k) / (k + 1)) <= stderr


def test_run_past_k_168(tmp_path):
    """Dirichlet moments past k = 168 overflow a float product of
    factorials; as one division of two ints they do not, so E2 runs at
    k = 170 and 200 and its II rows keep the closed form 2 sqrt(2 pi k) / (k + 1)."""
    out = tmp_path / "big"
    assert cli.main(["run", "--preset", "E2", "--k", "170,200", "--only", "gram,density", "--out", str(out)]) == 0
    with open(out / "curves.csv") as fh:
        rows = [r.split(",") for r in fh.read().strip().splitlines()[1:] if r.startswith("II,")]
    assert [int(r[2]) for r in rows] == [170, 200]
    for _, _, k, value, _ in rows:
        k = int(k)
        assert abs(float(value) - 2.0 * np.sqrt(2.0 * np.pi * k) / (k + 1)) <= 1e-10


def test_run_calls_the_transverse_rule_once(tmp_path, monkeypatch):
    """One `_transverse_integral` call covers the whole run, and its point
    sets are exactly those the quantities need, so no node is added: on E2
    at k = 2, 4, 8 the two extra pieces' slices, the two density points and
    the three strata's own slices (7 sets, once 7 calls), and on (CP^1)^3 at
    k = 2 every stratum's extra pieces, own slice and density point (16
    sets)."""
    from quantred import asymptotics, models, strata

    calls = []
    original = asymptotics._transverse_integral

    def counted(action, sets, ks, halfform=False, grams=None):
        calls.append((list(sets), tuple(ks)))
        return original(action, sets, ks, halfform, grams)

    monkeypatch.setattr(asymptotics, "_transverse_integral", counted)
    rank2 = {"model": {"factors": [1, 1, 1], "bundle_degrees": [1, 1, 1]},
             "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]}}
    for cfg, ks, count in (({"preset": "E2"}, [2, 4, 8], 7), (rank2, [2], 16)):
        calls.clear()
        scn = cli.validate(dict(cfg, k_list=ks, out=str(tmp_path / "c")))
        cli.run(scn)
        st = strata.analyze(scn.action)
        want = []
        for i, lab in enumerate(st.strata):
            pieces = st.preimage(lab)
            want += [strata.slice_quadrature(scn.action, sl, 48)[0] for _, _, sl in pieces[1:]]
            want.append(strata.slice_quadrature(scn.action, pieces[0][2], asymptotics.DENSITY_ORDER)[0])
            if not lab.isotropy.is_full:
                x = strata.sample_stratum(scn.action, lab, 1, seed=17 * i)[0][0]
                want.append(models.normalize(scn.model, x)[None])
        assert len(calls) == 1 and calls[0][1] == tuple(ks)
        assert len(want) == count
        assert sorted((z.shape, z.tobytes()) for z in calls[0][0]) == sorted((z.shape, z.tobytes()) for z in want)


def test_run_i_rows_state_their_error(tmp_path):
    """E1's I rows carry the transverse estimate plus a rounding floor,
    which alone covers their distance from the closed form
    pi sqrt(k/2) Gamma((k+2)/2) / Gamma((k+3)/2)."""
    from scipy.special import gammaln

    cfg = {"preset": "E1", "k_list": [2, 4, 8, 16], "quantities": ["density"], "out": str(tmp_path / "i")}
    cli.run(cli.validate(cfg))
    with open(tmp_path / "i" / "curves.csv") as fh:
        rows = [r.split(",") for r in fh.read().strip().splitlines()[1:]]
    assert [(r[0], int(r[2])) for r in rows] == [("I", k) for k in (2, 4, 8, 16)]
    for _, _, k, value, stderr in rows:
        k, value, stderr = int(k), float(value), float(stderr)
        exact = np.pi * np.sqrt(k / 2.0) * np.exp(gammaln((k + 2) / 2.0) - gammaln((k + 3) / 2.0))
        assert 0.0 < stderr < 1e-10 * value
        assert abs(value - exact) <= stderr


def test_run_on_a_fixed_line_zero_level(tmp_path):
    """CP^2 with weights (1, 0, 0): the zero level is a fixed line, and the
    whole space is an extra piece of the preimage.  `run` exits 0 and the
    consistency check reads max_nsigma < 1 at every k."""
    cfg = {"model": {"factors": [2], "bundle_degrees": [1]}, "action": {"rank": 1, "weights": [[1, 0, 0]]},
           "k_list": [1, 2, 4, 8]}
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "consistency.json") as fh:
        reports = json.load(fh)["reports"]
    assert [r["k"] for r in reports] == [1, 2, 4, 8]
    assert all(r["dim"] > 0 and r["max_nsigma"] < 1.0 for r in reports)


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    from quantred import QuantredError, actions, asymptotics, models, reduction, sections, strata

    rc = cli.main(["describe", "--preset", "E1", "--k", "2"])
    assert rc == 0
    rc = cli.main(["describe", "--preset", "NOPE"])
    assert rc == 2
    badcfg = tmp_path / "bad.json"
    badcfg.write_text(json.dumps({"preset": "E2", "k_list": [4], "twist": "halfform"}))
    rc = cli.main(["describe", "--config", str(badcfg)])
    assert rc == 2
    capsys.readouterr()
    # malformed values exit 2 naming the field, before any output is written; the mc
    # route's stratum samples, max(256, samples // 10) = 256 here, fill at most 256 blocks
    for field, value, named in (("k_list", ["a"], "k_list"), ("k_list", 2, "k_list"), ("k_list", [0, 2], "k_list"),
                                ("k_list", [-2, 2], "k_list"), ("k_list", [True], "k_list"),
                                ("k_list", [2.5], "k_list"), ("norm_defs", ["x"], "norm_defs"), ("seed", "x", "seed"),
                                ("quad", {"seed": "x"}, "quad.seed"),
                                ("quad", {"method": "mc", "samples": 1000, "blocks": 300}, "quad.blocks"),
                                ("preset", ["E1"], "preset"), ("quantities", 5, "quantities"),
                                ("quantities", "gram", "quantities"), (None, [{"preset": "E1"}], "config"),
                                (None, {"model": {"factors": [3], "bundle_degrees": [1]}, "twist": "halfform",
                                        "action": {"weights": [[1, -1, 0, 0]]}, "k_list": [1, 3]}, "k_list")):
        config = value if field is None else {"preset": "E1", "k_list": [2], field: value}
        badcfg.write_text(json.dumps(config))
        out = tmp_path / "malformed"
        assert cli.main(["run", "--config", str(badcfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}:")
        assert named != "quad.blocks" or "256" in err
        assert not out.exists()
    assert cli.main(["describe", "--config", str(badcfg)]) == 2  # the CP^3 half-form config, before any report line
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: k_list: negative twisted degree") and not captured.out
    assert cli.main(["run", "--preset", "E1", "--k", "2,x", "--out", str(tmp_path / "kx")]) == 2
    assert not (tmp_path / "kx").exists()
    # exit 3 is for the errors quantred raises on purpose; a programming
    # error keeps its traceback instead of passing for a numerical failure
    for cls, builtin in ((sections.SectionError, ValueError), (reduction.ReductionError, ValueError),
                         (strata.StrataError, RuntimeError), (asymptotics.AsymptoticsError, RuntimeError),
                         (actions.ActionError, ValueError), (models.ModelError, ValueError),
                         (cli.ConfigError, ValueError)):
        assert issubclass(cls, QuantredError) and issubclass(cls, builtin)
    argv = ["gram", "--preset", "E1", "--k", "2", "--out", str(tmp_path / "g")]

    def raising(exc):
        def reduced_grams(*args, **kwargs):
            raise exc
        return reduced_grams

    monkeypatch.setattr(reduction, "reduced_grams", raising(reduction.ReductionError("stratum slice infeasible")))
    assert cli.main(argv) == 3
    monkeypatch.setattr(reduction, "reduced_grams", raising(TypeError("a bug")))
    with pytest.raises(TypeError):
        cli.main(argv)
    # a NaN is a numerical failure, not a number to write to curves.csv
    monkeypatch.setattr(asymptotics, "residual_with_error",
                        lambda action, label, ks, *args: [(np.full(1, np.nan), np.zeros(1)) for _ in ks])
    out = tmp_path / "d"
    assert cli.main(["density", "--preset", "E2", "--k", "2", "--out", str(out)]) == 3
    assert not (out / "curves.csv").exists() and not (out / "run_manifest.json").exists()


def test_underflow_is_named_on_the_exact_route(tmp_path, capsys):
    """E2 at k = 700: the exact upstairs Dirichlet moments underflow to 0,
    and the run exits 3 naming underflow, not sampling; a zero entry handed
    in under quad.method mc is named underflow too."""
    from quantred import asymptotics, sections

    assert cli.main(["run", "--preset", "E2", "--k", "700", "--out", str(tmp_path / "u")]) == 3
    err = capsys.readouterr().err
    assert "underflow" in err and "sampling" not in err
    gram = sections.GramMatrix(basis_ids=[(0, 1)], diagonal=np.zeros(1), stderr=np.zeros(1), norm_def=1, k=2,
                               twist="plain")
    with pytest.raises(asymptotics.AsymptoticsError, match="underflowed to 0 at k=2"):
        asymptotics.unitarity_defect(None, 2, quad={"method": "mc"}, grams=(gram, gram))


def test_underflow_is_named_on_the_mc_route(tmp_path, capsys):
    """E2 at k = 700 under quad.method mc: the upstairs Grams are the exact
    Dirichlet moments on this route too, some underflow to 0.0 and are
    flagged "diagonal_underflow", and the run exits 3 naming underflow, not
    sampling."""
    cfg, out = tmp_path / "mc.json", tmp_path / "u"
    cfg.write_text(json.dumps({"preset": "E2", "quad": {"method": "mc"}}))
    assert cli.main(["run", "--config", str(cfg), "--k", "700", "--only", "gram,unitarity", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "underflowed to 0 at k=700" in err and "sampling" not in err
    for block in json.loads((out / "gram_up_700.json").read_text()).values():
        assert "diagonal_underflow" in block["flags"] and min(row[i] for i, row in enumerate(block["matrix_re"])) == 0.0


def test_gram_files_flag_diagonal_underflow(tmp_path):
    """E2 `--only gram`: at k = 700 the exact Dirichlet moments (upstairs) and
    the grid route's products (downstairs) underflow to 0 on some diagonal
    entries, and both files of both norm definitions carry the flag
    "diagonal_underflow"; at k = 2, ..., 128 every diagonal entry is
    positive and no file carries it."""
    import json

    for ks, flagged in (("700", True), ("2,4,8,16,32,64,128", False)):
        out = tmp_path / ks.replace(",", "_")
        assert cli.main(["run", "--preset", "E2", "--k", ks, "--only", "gram", "--out", str(out)]) == 0
        for k in ks.split(","):
            for side in ("up", "down"):
                for block in json.loads((out / f"gram_{side}_{k}.json").read_text()).values():
                    diag = [row[i] for i, row in enumerate(block["matrix_re"])]
                    assert ("diagonal_underflow" in block["flags"]) == flagged == (min(diag) <= 0)


def test_cli_run_via_main(tmp_path):
    rc = cli.main([
        "unitarity", "--preset", "E1", "--k", "2,4",
        "--out", str(tmp_path / "u"), "--seed", "5",
    ])
    assert rc == 0
    assert (tmp_path / "u" / "defects.csv").exists()
    assert not (tmp_path / "u" / "curves.csv").exists()



def test_consistency_keeps_grid_order_and_shares_residuals(tmp_path, monkeypatch):
    """The consistency step gets the run's quad, which sets only its
    residuals' grid order: grid_order // 2 like the II rows, and each piece
    integral, its half-order error nodes included, is computed once per
    slice for the whole k list, for both; each stratum's own slice takes
    DENSITY_ORDER."""
    from quantred import asymptotics, reduction, strata

    seen, made = [], {}
    original, quadrature = reduction._piece_integral, strata.slice_quadrature

    def slice_rule(action, sl, order):
        z, rules = quadrature(action, sl, order)
        made[id(z)] = (sl.pattern, order)
        return z, rules

    def counted(action, piece, exps, ks, twist):
        pattern, order = made[id(piece[1])]
        seen.append((pattern, tuple(ks), order))
        return original(action, piece, exps, ks, twist)

    monkeypatch.setattr(strata, "slice_quadrature", slice_rule)
    monkeypatch.setattr(reduction, "_piece_integral", counted)
    cfg = {"preset": "E2", "k_list": [2, 4], "quantities": ["density", "consistency"],
           "quad": {"grid_order": 128, "samples": 4000}, "out": str(tmp_path / "c")}
    scn = cli.validate(cfg)
    cli.run(scn)
    st = strata.analyze(scn.action)
    slices = {p.pattern for ps in st.pieces.values() for p in ps}
    assert len(slices) == 2  # E2's two extra pieces, one slice each
    pieces = [(pattern, k, order) for pattern, k, order in seen if pattern in slices]
    assert sorted((pattern, ks) for pattern, ks, _ in pieces) == sorted((s, (2, 4)) for s in slices)
    assert {order for _, _, order in pieces} == {128 // 2}
    own = sorted(call for call in seen if call[0] not in slices)
    assert own == sorted((lab.top_pattern, (2, 4), asymptotics.DENSITY_ORDER) for lab in st.strata)


def test_grid_grams_call_the_slice_rule_once_per_stratum(tmp_path, monkeypatch):
    """The grid-route reduced Grams take each stratum's Gauss rule and error
    rule from one `strata.slice_quadrature` call for the whole k list and
    both norm definitions: a gram run makes as many calls for --k 2 as for
    --k 2,4,8, one per stratum (E3 has one stratum, E2 three)."""
    from quantred import strata

    seen = []
    original = strata.slice_quadrature

    def counted(action, sl, order):
        seen.append((sl.pattern, order))
        return original(action, sl, order)

    monkeypatch.setattr(strata, "slice_quadrature", counted)
    for preset in ("E2", "E3"):
        calls = []
        for ks in ([2], [2, 4, 8]):
            seen.clear()
            cfg = {"preset": preset, "k_list": ks, "quantities": ["gram"], "out": str(tmp_path / preset)}
            scn = cli.validate(cfg)
            cli.run(scn)
            calls.append(sorted(seen))
        st = strata.analyze(scn.action)
        assert calls[0] == calls[1] == sorted((lab.level_slice.pattern, 96) for lab in st.strata)
        assert len(calls[1]) == {"E2": 3, "E3": 1}[preset]


def test_run_takes_each_preimage_term_once(tmp_path, monkeypatch):
    """One pass over the preimage pieces per run: E2 --k 2,4,8 with every
    quantity makes one `_gram_exact_on_pattern` call per pattern, 5 calls on
    the rows of every k stacked, so each of the 3 x 5 = 15 (k, pattern)
    moments is taken once and read by both norm definitions and the
    norm-split check's lhs; and each stratum's `reduction.stratum_gram` runs
    once for both definitions."""
    from quantred import reduction, sections

    moments, grams = [], []
    moment, stratum_gram = sections._gram_exact_on_pattern, reduction.stratum_gram

    def counted_moment(action, exps, twist, pattern):
        moments.append((exps.tolist(), pattern))
        return moment(action, exps, twist, pattern)

    def counted_gram(action, lab, exps, ks, twist, quad):
        grams.append(lab.key)
        return stratum_gram(action, lab, exps, ks, twist, quad)

    monkeypatch.setattr(sections, "_gram_exact_on_pattern", counted_moment)
    monkeypatch.setattr(reduction, "stratum_gram", counted_gram)
    assert cli.main(["run", "--preset", "E2", "--k", "2,4,8", "--out", str(tmp_path / "r")]) == 0
    e2 = cli.validate({"preset": "E2", "k_list": [2]}).action
    stacked = [row for k in (2, 4, 8) for row in sections.invariant_exponents(e2, k).tolist()]
    assert len(moments) == len({pattern for _, pattern in moments}) == 5
    assert all(rows == stacked for rows, _ in moments)
    assert len(grams) == len(set(grams)) == 3


def test_mc_norm_definitions_share_each_stratum_draw(tmp_path, monkeypatch):
    """Under quad.method mc with norm_defs [1, 2], the open stratum's samples
    are drawn once and read by both definitions: E2's three strata make three
    `strata.stratum_draw` calls, one per stratum, and the gram files are the
    bytes of runs under each definition alone."""
    from quantred import strata

    seen = []
    draw = strata.stratum_draw

    def counted(action, lab, *args):
        seen.append(lab.key)
        return draw(action, lab, *args)

    monkeypatch.setattr(strata, "stratum_draw", counted)
    files = {}
    for norm_defs in ([1, 2], [1], [2]):
        cfg, out = tmp_path / "mc.json", tmp_path / "-".join(map(str, norm_defs))
        cfg.write_text(json.dumps({"preset": "E2", "norm_defs": norm_defs, "quad": {"method": "mc", "samples": 4000}}))
        seen.clear()
        assert cli.main(["run", "--config", str(cfg), "--k", "2,4", "--only", "gram", "--out", str(out)]) == 0
        assert len(seen) == len(set(seen)) == (1 if norm_defs == [1] else 3)
        files[tuple(norm_defs)] = {k: json.loads((out / f"gram_down_{k}.json").read_text()) for k in (2, 4)}
    for k, both in files[1, 2].items():
        assert both == {**files[1,][k], **files[2,][k]}


def test_run_enumerates_each_invariant_basis_once(tmp_path, monkeypatch):
    """`quantred run` enumerates the invariant exponents of the whole k list
    in one call and hands the arrays to both Gram routes, the densities and
    the consistency check: E2 --k 2,4,8 with every quantity makes one list
    call, for (2, 4, 8), and no per-k call."""
    from quantred import sections

    seen = []
    original = sections.invariant_exponents_for

    def counted(action, ks, twist="plain"):
        seen.append(tuple(ks))
        return original(action, ks, twist)

    monkeypatch.setattr(sections, "invariant_exponents_for", counted)
    assert cli.main(["run", "--preset", "E2", "--k", "2,4,8", "--out", str(tmp_path / "r")]) == 0
    assert seen == [(2, 4, 8)]


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "quantred", "describe", "--preset", "E1"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "dim H^G = 1" in res.stdout


def test_run_exits_3_when_a_linear_program_fails(tmp_path, monkeypatch, capsys):
    """A failed HiGHS solve is a numerical failure (exit 3) that names the
    linear program, not an 'empty zero level set'; on CP^1 x CP^2, whose open
    stratum has a q = 2 slice and so still solves a program."""
    from quantred import strata

    failed = SimpleNamespace(status=4, success=False, message="Numerical difficulties encountered.")
    monkeypatch.setattr(strata, "_linprog", lambda c, **constraints: failed)
    cfg = tmp_path / "cp.json"
    cfg.write_text(json.dumps({"model": {"factors": [1, 2], "bundle_degrees": [1, 1]},
                               "action": {"rank": 1, "weights": [[1, 0, -1, 0, 1]]}}))
    assert cli.main(["run", "--config", str(cfg), "--k", "2", "--out", str(tmp_path / "cp")]) == 3
    err = capsys.readouterr().err
    assert "linear program on pattern" in err and "empty zero level" not in err


def _square(obj):
    """The object json.dumps sees for a Gram file: each diagonal block as np.diag(...).tolist()."""
    if isinstance(obj, cli._Diagonal):
        return np.diag(obj.values).tolist()
    if isinstance(obj, dict):
        return {key: _square(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_square(v) for v in obj]
    return obj


def test_json_text_matches_json_dumps():
    """The writer's text equals json.dumps(sort_keys=True, indent=1) of the square
    layout, byte for byte: Gram blocks of dimension 0 and 1, extreme and
    non-finite diagonal entries, numpy scalars, bools next to ints, non-ASCII
    strings, non-string keys, nested empty containers, and the writer's fast
    paths next to the inputs they must refuse: leaf lists of ints (negative,
    beyond 64 bits, mixed with bools), lists of int rows (none, one, many;
    lists or tuples) next to ragged, empty, nested or bool-holding rows,
    all-+0.0 diagonals next to one holding a -0.0, and diagonals with one
    non-finite entry among finite ones."""
    from quantred import sections

    edge = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.0, 1.5])
    grams = [sections.GramMatrix(basis_ids=[(i, 2 - i) for i in range(n)], diagonal=d, stderr=e,
                                 norm_def=nd, k=3, twist="plain", per_stratum=per)
             for n, d, e in ((0, np.zeros(0), np.zeros(0)), (1, np.array([2.5]), np.array([1e-17])),
                             (len(edge), edge, np.abs(edge[::-1])))
             for nd, per in ((1, None), (2, {}), (2, {(0,): d, (1, 2): -d}))]
    cases = [{str(nd): cli._gram_json(g) for nd, g in enumerate(grams)}]
    cases += [cli._gram_json(g) for g in grams]
    cases += [
        {"b": np.float64(0.1), "a": True, "c": 1, "d": [False, 0, 1.0, None], "é": "ü ∑ \"q\"\n"},
        {"x": {}, "y": [], "z": [{}, [[]], {"w": {"v": []}}], "": ()},
        {2: "two", 1.5: [], 0: {}}, {True: 1, False: 0}, {None: float("-inf")},
        [], {}, 3, -0.0, float("nan"), "text", None,
        {"m": cli._Diagonal(np.array([np.float64(7.0)])), "e": cli._Diagonal(np.zeros(0))},
        [-3, 0, 2**70, -(2**70)], [[1, 2], [-1]], [True, 1], [1, False], [1, 1.0], [1, None], [[]], [[], [0]],
        {"basis": [[0, 3], [-2, 5]], "k": -7},
        {"d": cli._Diagonal(np.array([1.0, np.nan, -2.5])), "i": cli._Diagonal(np.array([np.inf, 0.5])),
         "f": cli._Diagonal(np.array([0.1, -0.0, 5e-324]))},
        {"z1": cli._Diagonal(np.zeros(1)), "z5": cli._Diagonal(np.zeros(5)),
         "neg": cli._Diagonal(np.array([0.0, 0.0, -0.0, 0.0])), "neg1": cli._Diagonal(np.array([-0.0]))},
        {"basis": []}, {"basis": [[7, -3]]}, {"basis": [(0, 5), (1, 4)]}, [[5]], [(2**64,)],
        {"basis": [[i, -i, (-1) ** i * 2**70, 2**63 - i] for i in range(40)]},
        [[1, 2, 3], [4, 5], [6, 7, 8]], [[]] * 3, [[[1]], [[2]]], [[1, True], [2, 3]], [[1, 2], (3, 4.0)],
        [[1, 2], {"a": 1}], [(1, 2), [3, 4]],
    ]
    for obj in cases:
        assert cli._json_text(obj) == json.dumps(_square(obj), sort_keys=True, indent=1)


def test_run_files_keep_the_square_gram_layout(tmp_path, monkeypatch):
    """Every JSON file a run writes is json.dumps(sort_keys=True, indent=1) of
    its content, and each Gram file holds np.diag of the GramMatrix vectors in
    matrix_re, matrix_im, stderr and per_stratum (the layout readers parse)."""
    from quantred import reduction, sections

    grams = {}
    grams_upstairs, reduced_grams = sections.grams_upstairs, reduction.reduced_grams

    def up(action, ks, twist, norm_defs, **kwargs):
        out = grams_upstairs(action, ks, twist, norm_defs, **kwargs)
        grams.update((("up", k, nd), g) for nd, gs in out.items() for k, g in zip(ks, gs))
        return out

    def down(action, ks, twist, norm_defs, quad, strat=None, exps=None):
        out = reduced_grams(action, ks, twist, norm_defs, quad, strat, exps)
        grams.update((("down", k, nd), g) for nd, gs in out.items() for k, g in zip(ks, gs))
        return out

    monkeypatch.setattr(sections, "grams_upstairs", up)
    monkeypatch.setattr(reduction, "reduced_grams", down)
    for preset, twist in (("E1", "plain"), ("E2", "plain"), ("E3", "plain"), ("E3", "halfform")):
        for method in ("exact", "mc"):
            out = tmp_path / f"{preset}-{twist}-{method}"
            grams.clear()
            cli.run(cli.validate({"preset": preset, "twist": twist, "k_list": [2, 4], "out": str(out),
                                  "quad": {"method": method, "samples": 1000, "grid_order": 16}}))
            for name in sorted(os.listdir(out)):
                if name.endswith(".json"):
                    data = (out / name).read_bytes()
                    assert data == json.dumps(json.loads(data), sort_keys=True, indent=1).encode(), name
            for (side, k, nd), g in grams.items():
                block = json.loads((out / f"gram_{side}_{k}.json").read_text())[str(nd)]
                assert block["matrix_re"] == np.diag(g.diagonal).tolist()
                assert block["matrix_im"] == np.zeros((g.dim, g.dim)).tolist()
                assert block["stderr"] == np.diag(g.stderr).tolist()
                assert ("per_stratum" in block) == (side == "down")
                if side == "down":
                    assert block["per_stratum"] == {str(i): np.diag(d).tolist()
                                                    for i, d in enumerate(g.per_stratum.values())}
            assert len(grams) == 8


def test_mc_grams_of_a_k_do_not_depend_on_the_k_list(tmp_path):
    """Both Monte Carlo Grams draw once per pattern or stratum for the whole k
    list, so gram_up_4.json and gram_down_4.json are the same bytes whether
    k = 4 runs alone, in 2,4,8 or in a list of 15 values: E2 under norm
    definitions 1 and 2 and E3 half-form (even k) under definition 1."""
    for preset, twist, norm_defs, step in (("E2", "plain", [1, 2], 1), ("E3", "halfform", [1], 2)):
        cfg = tmp_path / f"{preset}.json"
        cfg.write_text(json.dumps({"preset": preset, "twist": twist, "norm_defs": norm_defs, "seed": 9,
                                   "quad": {"method": "mc", "samples": 4000}}))
        files = set()
        for ks in ("4", "2,4,8", ",".join(str(k) for k in range(2, 2 + 15 * step, step))):
            out = tmp_path / f"{preset}-{ks.count(',')}"
            assert cli.main(["run", "--config", str(cfg), "--k", ks, "--only", "gram", "--out", str(out)]) == 0
            files.add(tuple((out / f"gram_{side}_4.json").read_bytes() for side in ("up", "down")))
        assert len(files) == 1


def test_upstairs_grams_are_exact_under_mc(tmp_path):
    """quad.method mc samples only the reduced Grams: gram_up files are the
    exact route's bytes, every upstairs stderr is 0, and every reduced
    stderr is positive; E2 under both norm definitions and E3 half-form."""
    for preset, twist, ks in (("E2", "plain", "2,4,8"), ("E3", "halfform", "2,4")):
        files = {}
        for method in ("exact", "mc"):
            cfg, out = tmp_path / f"{preset}-{method}.json", tmp_path / f"{preset}-{method}"
            cfg.write_text(json.dumps({"preset": preset, "twist": twist, "quad": {"method": method, "samples": 4000}}))
            assert cli.main(["run", "--config", str(cfg), "--k", ks, "--only", "gram", "--out", str(out)]) == 0
            files[method] = {k: (out / f"gram_up_{k}.json").read_bytes() for k in ks.split(",")}
        assert files["exact"] == files["mc"]
        for k in ks.split(","):
            for side, positive in (("up", False), ("down", True)):
                for block in json.loads((tmp_path / f"{preset}-mc" / f"gram_{side}_{k}.json").read_text()).values():
                    assert all((row[i] > 0) == positive for i, row in enumerate(block["stderr"]))


def test_empty_zero_level_is_a_config_error(tmp_path, capsys):
    """A shift that places 0 outside phi(M) leaves nothing to reduce: run and
    describe exit 2 naming action, and run writes nothing."""
    cfg, out = tmp_path / "shift.json", tmp_path / "out"
    cfg.write_text(json.dumps({"preset": "E1", "k_list": [2],
                               "action": {"rank": 1, "weights": [[[1, -1]]], "shift": ["2"]}}))
    for argv in (["run", "--config", str(cfg), "--out", str(out)], ["describe", "--config", str(cfg)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: action: ") and "empty zero level" in err
    assert not out.exists()


def test_zoo_configs_exit_0_or_name_their_field(tmp_path):
    """A fixed handful of the rank-1 zoo of tools/zoo.py, by index: runs that
    finish exit 0 with nothing on stderr, and an empty zero level or
    invariant space exits 2 naming action or k_list."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "zoo.py"
    spec = importlib.util.spec_from_file_location("zoo", path)
    zoo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(zoo)
    configs = zoo.configs()
    assert len(configs) == 36
    for i, code, field in ((10, 0, None), (12, 0, None), (18, 0, None), (35, 0, None), (0, 2, "action"),
                           (34, 2, "action"), (4, 2, "k_list")):
        got, line = zoo.run_one(configs[i], str(tmp_path / f"run_{i}"))
        assert got == code
        assert line == "" if field is None else line.startswith(f"config error: {field}: ")


def test_failed_rerun_leaves_no_manifest(tmp_path, capsys):
    """A run that fails into a directory holding an earlier run's files
    removes that run's manifest before writing anything, so no manifest is
    left whose hashes disagree with the files."""
    out = str(tmp_path / "d")
    assert cli.main(["run", "--preset", "E1", "--k", "2,4", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "run_manifest.json"))
    assert cli.main(["run", "--preset", "E1", "--twist", "halfform", "--k", "2,4", "--out", out]) == 2
    assert "empty invariant space at k=2" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "run_manifest.json"))


def test_rerun_into_one_directory_writes_fresh_files(tmp_path):
    """E2 runs with k = 2,4,8, then 2,4, then 2,4,8 again, all into one
    directory: every file of the last run equals a run into a fresh
    directory byte for byte, and every manifest hash verifies.  An output
    path that is a symlink is replaced by the new file, and the file it
    pointed to is left as it was."""
    import hashlib

    out, fresh, target = tmp_path / "d", tmp_path / "fresh", tmp_path / "target.json"
    target.write_text("keep")
    for ks in ("2,4,8", "2,4", "2,4,8"):
        if ks == "2,4":
            (out / "strata.json").unlink()
            (out / "strata.json").symlink_to(target)
        assert cli.main(["run", "--preset", "E2", "--k", ks, "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (ks, name)
    assert target.read_text() == "keep" and not (out / "strata.json").is_symlink()
    assert cli.main(["run", "--preset", "E2", "--k", "2,4,8", "--out", str(fresh)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(fresh))
    for name in os.listdir(fresh):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_bad_out_exits_2_naming_out(tmp_path, capsys):
    """An --out that cannot be made a directory (an existing file, a path
    below a file, a name longer than the filesystem allows) exits 2 with a
    config error that names out, not with a traceback."""
    existing = tmp_path / "file"
    existing.write_text("")
    for out in (existing, existing / "sub", tmp_path / ("x" * 300)):
        assert cli.main(["run", "--preset", "E2", "--k", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and str(out) in err
    assert existing.read_text() == ""


def test_empty_invariant_space_is_a_config_error(tmp_path, capsys):
    """With unitarity requested, a k whose invariant space is empty exits 2
    naming k_list and that k, before any output file is written."""
    out = tmp_path / "e"
    assert cli.main(["run", "--preset", "E1", "--twist", "halfform", "--k", "2,4,8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "k_list" in err and "k=2, 4, 8" in err
    assert os.listdir(out) == []
    assert cli.main(["run", "--preset", "E1", "--twist", "halfform", "--k", "3,5,9", "--out", str(out)]) == 0


def test_empty_invariant_space_is_found_before_any_gram(tmp_path, monkeypatch, capsys):
    """The empty-space check reads the run's shared exponent list, so it
    exits 2 naming k_list even when building a Gram would fail."""
    from quantred import reduction, sections

    def fail(*args, **kwargs):
        raise AssertionError("a Gram was built")

    monkeypatch.setattr(sections, "grams_upstairs", fail)
    monkeypatch.setattr(reduction, "reduced_grams", fail)
    out = tmp_path / "e"
    assert cli.main(["run", "--preset", "E1", "--twist", "halfform", "--k", "2,3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "k_list" in err and "k=2," in err and "k=2, 3" not in err
    assert os.listdir(out) == []


def test_only_is_rejected_outside_run(tmp_path, capsys):
    """A subcommand fixes the quantities itself, so --only with it exits 2
    naming --only instead of being dropped."""
    for command in ("gram", "describe"):
        out = tmp_path / command
        assert cli.main([command, "--preset", "E1", "--only", "strata", "--k", "2", "--out", str(out)]) == 2
        assert "--only" in capsys.readouterr().err
        assert not out.exists()
