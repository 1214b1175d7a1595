import argparse
import json
import warnings

import numpy as np
import pytest

from imputebench.bench import load_csv, load_mask_csv, read_data_csv, save_csv
from imputebench.cli import _parse_cols, _parse_range, build_parser, main
from imputebench.featurize import featurized_ridge_peak_bytes
from imputebench.imputers import METHOD_DEFAULTS, Imputer, knn_peak_bytes
from imputebench.missingness import PATTERN_DEFAULTS, nn_mnar_peak_bytes


def _gen_dataset(tmp_path, name="data.csv", rows=20, cols=6, rank=2, seed=5):
    out = tmp_path / name
    code = main([
        "gen", "--rows", str(rows), "--cols", str(cols), "--rank", str(rank),
        "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


def test_gen_writes_loadable_csv(tmp_path):
    out = _gen_dataset(tmp_path)
    rec = load_csv(out)
    assert rec.matrix.shape == (20, 6)
    s = np.linalg.svd(rec.matrix.values, compute_uv=False)
    assert s[2] < 1e-8 * s[0]


def test_gen_accepts_distribution_syntax(tmp_path):
    out = tmp_path / "d.csv"
    code = main([
        "gen", "--rows", "10", "--cols", "4", "--rank", "1",
        "--row-dist", "dirichlet", "--col-dist", "student-t:5",
        "--out", str(out),
    ])
    assert code == 0
    assert load_csv(out).matrix.shape == (10, 4)


def test_mask_writes_mask_and_sidecar(tmp_path):
    data = _gen_dataset(tmp_path)
    mask_path = tmp_path / "mask.csv"
    code = main([
        "mask", "--data", str(data), "--pattern", "mcar",
        "--p-missing", "0.3", "--seed", "7", "--out", str(mask_path),
    ])
    assert code == 0
    mask = load_mask_csv(mask_path)
    assert mask.shape == (20, 6)
    sidecar = json.loads((tmp_path / "mask.csv.json").read_text())
    assert sidecar["pattern"] == "mcar"
    assert sidecar["params"]["p_missing"] == 0.3
    assert sidecar["seed"] == 7
    assert 0.0 < sidecar["missing_fraction"] < 1.0


def test_mask_self_masking_on_wide_spread_data(tmp_path):
    data = _gen_dataset(tmp_path, rows=30, cols=12, seed=1)
    save_csv(50.0 * load_csv(data).matrix.values, data)
    mask_path = tmp_path / "mask.csv"
    code = main(["mask", "--data", str(data), "--pattern", "self-masking",
                 "--out", str(mask_path)])
    assert code == 0
    assert load_mask_csv(mask_path).shape == (30, 12)


def test_mask_rejects_inapplicable_hyperparameter(tmp_path, capsys):
    data = _gen_dataset(tmp_path)
    code = main([
        "mask", "--data", str(data), "--pattern", "mcar",
        "--q-censor", "0.2", "--out", str(tmp_path / "m.csv"),
    ])
    assert code == 2
    assert "unknown parameters" in capsys.readouterr().err


def test_mask_seed_default_is_42(tmp_path):
    data = _gen_dataset(tmp_path)
    for name in ("a", "b"):
        assert main([
            "mask", "--data", str(data), "--pattern", "panel",
            "--out", str(tmp_path / f"{name}.csv"),
        ]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert json.loads((tmp_path / "a.csv.json").read_text())["seed"] == 42


def test_impute_with_explicit_mask(tmp_path):
    data = _gen_dataset(tmp_path)
    mask_path = tmp_path / "mask.csv"
    main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask_path)])
    out = tmp_path / "completed.csv"
    code = main([
        "impute", "--data", str(data), "--mask", str(mask_path),
        "--method", "soft-impute", "--out", str(out),
    ])
    assert code == 0
    completed, _ = read_data_csv(out)
    assert not np.isnan(completed).any()
    original, _ = read_data_csv(data)
    mask = load_mask_csv(mask_path)
    assert np.array_equal(completed[mask.observed], original[mask.observed])
    diag = json.loads((tmp_path / "completed.csv.json").read_text())
    assert diag["method"] == "soft-impute"
    assert diag["diagnostics"]["converged"] is True


def test_impute_from_empty_cells(tmp_path):
    values = np.arange(20.0).reshape(5, 4)
    values[1, 2] = np.nan
    values[4, 0] = np.nan
    src = tmp_path / "holes.csv"
    save_csv(values, src)
    out = tmp_path / "done.csv"
    code = main(["impute", "--data", str(src), "--method", "col-mean",
                 "--out", str(out)])
    assert code == 0
    completed, _ = read_data_csv(out)
    assert not np.isnan(completed).any()


def test_impute_mask_data_consistency_check(tmp_path, capsys):
    values = np.arange(6.0).reshape(2, 3)
    values[0, 0] = np.nan
    src = tmp_path / "holes.csv"
    save_csv(values, src)
    mask_path = tmp_path / "m.csv"
    mask_path.write_text("1,1,1\n1,1,1\n")  # claims the NaN cell is observed
    code = main(["impute", "--data", str(src), "--mask", str(mask_path),
                 "--method", "col-mean", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "observed" in capsys.readouterr().err


def test_impute_singular_ridge_exits_two(tmp_path, capsys, monkeypatch):
    # a positive penalty that rounding loses can still leave solve with a
    # singular system; the failure is made deterministic
    rng = np.random.default_rng(15)
    src, mask_path = tmp_path / "d.csv", tmp_path / "m.csv"
    save_csv(rng.normal(size=(4, 3)), src)
    mask_path.write_text("1,1,1\n1,0,1\n1,1,1\n1,1,1\n")

    def solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", solve)
    code = main(["impute", "--data", str(src), "--mask", str(mask_path),
                 "--method", "featurized-ridge", "--ridge-lambda", "1e-300",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ridge_lambda" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_impute_lets_a_failed_factorization_propagate(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError, yet a factorization that
    # fails inside a method is a fault, not a configuration error (exit 2)
    rng = np.random.default_rng(16)
    src, mask_path = tmp_path / "d.csv", tmp_path / "m.csv"
    save_csv(rng.normal(size=(6, 3)), src)
    mask_path.write_text("1,1,1\n1,0,1\n1,1,1\n1,1,0\n1,1,1\n1,1,1\n")

    def eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        main(["impute", "--data", str(src), "--mask", str(mask_path),
              "--method", "soft-impute", "--out", str(tmp_path / "o.csv")])
    assert "error:" not in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_impute_singular_ice_asks_for_a_larger_penalty(tmp_path, capsys):
    # one observed cell in the second column: at a zero penalty both columns'
    # centred predictor blocks are all zeros
    src, out = tmp_path / "d.csv", tmp_path / "o.csv"
    src.write_text("a,b\n1,2\n2,\n3,\n4,\n")
    code = main(["impute", "--data", str(src), "--method", "ice", "--ridge-lambda", "0",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: normal equations are singular at this penalty; retry with a "
                   "larger ridge_lambda\n")
    assert not out.exists() and not (tmp_path / "o.csv.json").exists()
    assert main(["impute", "--data", str(src), "--method", "ice", "--out", str(out)]) == 0


def test_impute_ragged_mask_exits_two_naming_the_row(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,b,c\n1,2,3\n4,5,6\n")
    mask = tmp_path / "m.csv"
    mask.write_text("1,0,1\n1,1\n")
    code = main([
        "impute", "--data", str(data), "--mask", str(mask),
        "--method", "col-mean", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "row 1 has 2 cells, row 0 has 3" in capsys.readouterr().err


def _subcommand(name):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices[name]


def _pattern_flag_group():
    return next(g for g in _subcommand("mask")._action_groups
                if g.title.startswith("pattern hyperparameters"))


def test_mask_flags_are_exactly_the_pattern_parameters():
    dests = [a.dest for a in _pattern_flag_group()._group_actions]
    assert len(dests) == len(set(dests))
    assert set(dests) == {key for params in PATTERN_DEFAULTS.values() for key in params}


def test_mask_flag_group_is_pinned():
    """Every flag the generated group must keep: (option, dest, type,
    metavar, action class). Each default's kind picks the parser."""
    span, cols, store = _parse_range, _parse_cols, argparse._StoreAction
    expected = [
        ("--p-missing", "p_missing", float, None, store),
        ("--predictor-fraction", "predictor_fraction", float, None, store),
        ("--neighborhood-size-range", "neighborhood_size_range", span, "LO:HI", store),
        ("--layer-range", "layer_range", span, "LO:HI", store),
        ("--width-range", "width_range", span, "LO:HI", store),
        ("--target-cols", "target_cols", cols, "J1,J2,...", store),
        ("--q-censor", "q_censor", float, None, store),
        ("--q-thresh", "q_thresh", float, None, store),
        ("--alpha", "alpha", float, None, store),
        ("--eps", "eps", float, None, store),
        ("--k-low", "k_low", int, None, store),
        ("--k-high", "k_high", int, None, store),
        ("--n-row-clusters", "n_row_clusters", int, None, store),
        ("--n-col-clusters", "n_col_clusters", int, None, store),
        ("--tau-r", "tau_r", float, None, store),
        ("--tau-c", "tau_c", float, None, store),
        ("--eps-std", "eps_std", float, None, store),
        ("--f-cheap", "f_cheap", float, None, store),
        ("--beta", "beta", float, None, store),
        ("--n-row-blocks", "n_row_blocks", int, None, store),
        ("--n-col-blocks", "n_col_blocks", int, None, store),
        ("--algorithm", "algorithm", str, None, store),
        ("--epsilon", "epsilon", float, None, store),
        ("--epsilon-decay", "epsilon_decay", float, None, store),
        ("--pooling", "pooling", None, None, argparse._StoreConstAction),
        ("--reward-noise-scale", "reward_noise_scale", float, None, store),
    ]
    actions = _pattern_flag_group()._group_actions
    got = [(*a.option_strings, a.dest, a.type, a.metavar, type(a)) for a in actions]
    assert got == expected
    for action in actions:  # unset flags stay None, so the defaults apply
        assert action.default is None and not action.required
    pooling = next(a for a in actions if a.dest == "pooling")
    assert pooling.const is True and pooling.nargs == 0


def test_mask_generated_flags_reach_the_sidecar(tmp_path):
    data = _gen_dataset(tmp_path, rows=30, cols=8)
    runs = [
        ("nn-mnar", ["--neighborhood-size-range", "2:4"],
         {"neighborhood_size_range": [2, 4]}),
        ("seq", ["--pooling", "--algorithm", "ucb"],
         {"pooling": True, "algorithm": "ucb"}),
        ("self-masking", ["--target-cols", "0,2"], {"target_cols": [0, 2]}),
        ("block", ["--n-row-blocks", "5", "--n-col-blocks", "4"],
         {"n_row_blocks": 5, "n_col_blocks": 4}),
    ]
    for pattern, flags, echoed in runs:
        out = tmp_path / f"{pattern}.csv"
        assert main(["mask", "--data", str(data), "--pattern", pattern,
                     "--out", str(out), *flags]) == 0
        params = json.loads((tmp_path / f"{pattern}.csv.json").read_text())["params"]
        assert {k: params[k] for k in echoed} == echoed
        assert params.keys() == PATTERN_DEFAULTS[pattern].keys()


def test_mask_sidecar_text_is_the_sorted_dump_with_lists(tmp_path):
    data = _gen_dataset(tmp_path, rows=30, cols=8)
    out = tmp_path / "nn.csv"
    assert main(["mask", "--data", str(data), "--pattern", "nn-mnar", "--seed", "3",
                 "--neighborhood-size-range", "2:4", "--out", str(out)]) == 0
    mask = load_mask_csv(out)
    params = {k: list(v) if isinstance(v, tuple) else v
              for k, v in {**PATTERN_DEFAULTS["nn-mnar"],
                           "neighborhood_size_range": (2, 4)}.items()}
    want = json.dumps({"pattern": "nn-mnar", "seed": 3, "data": str(data),
                       "shape": [30, 8], "params": params,
                       "missing_fraction": mask.n_missing / mask.indicator.size},
                      sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "nn.csv.json").read_text() == want


def test_impute_flags_are_method_parameters():
    fixed = {"help", "data", "mask", "method", "out", "diagnostics", "seed"}
    flags = {a.dest for a in _subcommand("impute")._actions} - fixed
    keys = {key for params in METHOD_DEFAULTS.values() for key in params}
    assert keys == flags


def test_impute_flag_group_is_pinned():
    """Every flag the group generated from METHOD_DEFAULTS must keep:
    (option, dest, type); two keep their historical spelling."""
    expected = [
        ("--k", "k", int),
        ("--lambda", "lam", float),
        ("--max-iter", "max_iter", int),
        ("--tol", "tol", float),
        ("--ridge-lambda", "ridge_lambda", float),
        ("--base-a", "base_a", str),
        ("--base-b", "base_b", str),
        ("--perms", "n_perms", int),
    ]
    group = next(g for g in _subcommand("impute")._action_groups
                 if g.title.startswith("method hyperparameters"))
    actions = group._group_actions
    assert [(*a.option_strings, a.dest, a.type) for a in actions] == expected
    for action in actions:  # unset flags stay None, so the defaults apply
        assert isinstance(action, argparse._StoreAction)
        assert action.default is None and not action.required and action.choices is None


@pytest.mark.parametrize("command, flags, message", [
    ("impute", ["--method", "ensemble", "--base-a", "nope"],
     "unknown base method 'nope' (choose from: col-mean, knn, soft-impute, ice, "
     "featurized-ridge, ensemble)"),
    ("impute", ["--method", "ensemble", "--base-b", "nope"], "unknown base method 'nope'"),
    ("mask", ["--pattern", "seq", "--algorithm", "softmax"],
     "unknown bandit algorithm 'softmax'"),
])
def test_bad_tag_parameter_exits_two_without_output(tmp_path, capsys, command, flags,
                                                     message):
    data = _gen_dataset(tmp_path)
    mask, out = tmp_path / "m.csv", tmp_path / "o.csv"
    assert main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask)]) == 0
    extra = ["--mask", str(mask)] if command == "impute" else []
    assert main([command, "--data", str(data), *extra, "--out", str(out), *flags]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.csv.json").exists()


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_bench_non_finite_cell_exits_two_naming_the_file_and_cell(tmp_path, capsys, cell):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    path = data_dir / "d.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n4,5\n")
    out_dir = tmp_path / "run"
    assert main(["bench", "--datasets", str(data_dir), "--patterns", "mcar",
                 "--methods", "col-mean,knn", "--seeds", "1", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "found 1 empty or non-finite cells at (row 1, column 'b')" in err
    assert not out_dir.exists()


def test_impute_ensemble_method(tmp_path):
    data = _gen_dataset(tmp_path, rows=15, cols=5)
    mask_path = tmp_path / "mask.csv"
    main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask_path)])
    out = tmp_path / "c.csv"
    code = main([
        "impute", "--data", str(data), "--mask", str(mask_path),
        "--method", "ensemble", "--base-a", "col-mean", "--base-b", "ice",
        "--perms", "1", "--out", str(out),
    ])
    assert code == 0
    diag = json.loads((tmp_path / "c.csv.json").read_text())
    assert "weight" in diag["diagnostics"]


def test_bench_end_to_end(tmp_path):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    for i in range(2):
        _gen_dataset(data_dir, name=f"d{i}.csv", rows=25, cols=6, seed=i)
    out_dir = tmp_path / "run"
    code = main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar,panel",
        "--methods", "col-mean,soft-impute", "--seeds", "2",
        "--seed", "3", "--out", str(out_dir),
    ])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert len(doc["cells"]) == 2 * 2 * 2 * 2
    assert doc["config"]["seed"] == 3
    table = (out_dir / "report.csv").read_text().splitlines()
    assert table[0] == "pattern,col-mean,soft-impute"
    assert [line.split(",")[0] for line in table[1:]] == ["mcar", "panel", "Overall"]


def test_bench_adaptive_proportions_flag(tmp_path):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv", rows=20, cols=6)
    out_dir = tmp_path / "run"
    code = main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar,censoring",
        "--methods", "col-mean,knn", "--seeds", "1", "--out", str(out_dir),
        "--adaptive-proportions",
    ])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["proportion_trajectory"] is not None
    assert {t["step"] for t in doc["proportion_trajectory"]} == {0, 50, 100}


def test_bench_config_errors_exit_two(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    assert main([
        "bench", "--datasets", str(data_dir), "--patterns", "nosuch",
        "--methods", "col-mean,knn", "--out", str(tmp_path / "o"),
    ]) == 2
    assert main([
        "bench", "--datasets", str(tmp_path / "missing"), "--patterns", "mcar",
        "--methods", "col-mean,knn", "--out", str(tmp_path / "o"),
    ]) == 2
    assert main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar",
        "--methods", "col-mean", "--out", str(tmp_path / "o"),
    ]) == 2


def test_bench_bad_temperature_exits_two_without_a_report(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    for temperature in ("0", "nan"):
        out = tmp_path / f"o-{temperature}"
        assert main([
            "bench", "--datasets", str(data_dir), "--patterns", "mcar",
            "--adaptive-proportions", "--temperature", temperature,
            "--methods", "col-mean,soft-impute", "--seeds", "1", "--out", str(out),
        ]) == 2
        assert "temperature must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_bench_duplicate_patterns_exit_two(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    out = tmp_path / "o"
    assert main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar,mcar",
        "--adaptive-proportions", "--methods", "col-mean,soft-impute",
        "--seeds", "1", "--out", str(out),
    ]) == 2
    assert "pattern tags must be unique" in capsys.readouterr().err
    assert not out.exists()


def test_bench_oversize_knn_exits_two(tmp_path, capsys, monkeypatch):
    import imputebench.bench as bench

    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    monkeypatch.setattr(bench, "_physical_memory", lambda: 1024)
    assert main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar",
        "--methods", "col-mean,knn", "--jobs", "1", "--out", str(tmp_path / "o"),
    ]) == 2
    err = capsys.readouterr().err
    assert "'knn'" in err and "20x6" in err and "bytes" in err
    assert "with 1 group at once;" in err
    assert not (tmp_path / "o").exists()


def test_mask_oversize_nn_mnar_exits_two(tmp_path, capsys, monkeypatch):
    import imputebench.bench as bench

    data = _gen_dataset(tmp_path)  # 20 x 6
    out = tmp_path / "nn.csv"
    argv = ["mask", "--data", str(data), "--pattern", "nn-mnar", "--out", str(out)]
    need = nn_mnar_peak_bytes(20, 6, 8, 16)  # the default ranges, sizes 3-8, widths 4-16
    monkeypatch.setattr(bench, "_physical_memory", lambda: need - 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'nn-mnar'" in err and "20x6" in err and f"needs {need:,} bytes" in err
    assert "with 1 group at once;" in err
    assert not out.exists()
    # a pattern without the bound runs, and so does nn-mnar where it fits
    assert main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(out)]) == 0
    monkeypatch.setattr(bench, "_physical_memory", lambda: need)
    assert main(argv) == 0
    # the flags are resolved before the check
    assert main(argv + ["--neighborhood-size-range", "3:9"]) == 2
    assert f"needs {nn_mnar_peak_bytes(20, 6, 9, 16):,} bytes" in capsys.readouterr().err


def test_impute_oversize_exits_two(tmp_path, capsys, monkeypatch):
    import imputebench.bench as bench

    data = _gen_dataset(tmp_path, name="d.csv")  # 20 x 6
    mask, out = tmp_path / "m.csv", tmp_path / "o.csv"
    assert main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask)]) == 0

    def impute(*flags):
        return main(["impute", "--data", str(data), "--mask", str(mask),
                     "--out", str(out), *flags])

    knn, ridge = "knn row distances", "featurized ridge normal equations"
    for flags, who, what, need in (
        (["--method", "knn"], "'knn'", knn, knn_peak_bytes(20)),
        (["--method", "ensemble", "--base-a", "knn"], "'ensemble'", knn, knn_peak_bytes(20)),
        (["--method", "ensemble"], "'ensemble'", ridge, featurized_ridge_peak_bytes(20, 6, 4)),
        (["--method", "featurized-ridge"], "'featurized-ridge'", ridge,
         featurized_ridge_peak_bytes(20, 6)),
    ):
        monkeypatch.setattr(bench, "_physical_memory", lambda: need - 1)
        assert impute(*flags) == 2, flags
        err = capsys.readouterr().err
        assert (f"method {who} needs {need:,} bytes of {what} for dataset 'd' (20x6) "
                f"with 1 group at once; the process may use {need - 1:,} bytes") in err
        assert not out.exists() and not (tmp_path / "o.csv.json").exists()
    # a budget equal to the need fits
    monkeypatch.setattr(bench, "_physical_memory", lambda: knn_peak_bytes(20))
    assert impute("--method", "knn") == 0 and out.exists()
    out.unlink()
    monkeypatch.setattr(bench, "_physical_memory",
                        lambda: featurized_ridge_peak_bytes(20, 6))
    assert impute("--method", "featurized-ridge") == 0 and out.exists()


def test_impute_refuses_an_ensemble_too_large_for_memory_before_it_draws(tmp_path, capsys,
                                                                        monkeypatch):
    import imputebench.bench as bench

    data = _gen_dataset(tmp_path, name="d.csv")  # 20 x 6
    mask, out = tmp_path / "m.csv", tmp_path / "o.csv"
    assert main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask)]) == 0
    # 10 million assignments need about 28 GB, more than the 1 GiB budget set
    # here on any host; the refusal comes before a permutation is drawn
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2**30)

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(Imputer, "run", no_run)
    assert main(["impute", "--data", str(data), "--mask", str(mask), "--method", "ensemble",
                 "--perms", "10000000", "--out", str(out)]) == 2
    need = featurized_ridge_peak_bytes(20, 6, 10_000_000)
    assert f"method 'ensemble' needs {need:,} bytes of featurized ridge" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.csv.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--method", "soft-impute", "--lambda", "nan"], "lam must be >= 0, got nan"),
    (["--method", "soft-impute", "--lambda", "-1"], "lam must be >= 0, got -1.0"),
    (["--method", "ice", "--ridge-lambda", "-5"], "ridge penalty must be >= 0, got -5.0"),
    (["--method", "ice", "--ridge-lambda", "nan"], "ridge penalty must be >= 0, got nan"),
    (["--method", "featurized-ridge", "--ridge-lambda", "nan"],
     "ridge penalty must be >= 0, got nan"),
    (["--method", "featurized-ridge", "--ridge-lambda", "-1"],
     "ridge penalty must be >= 0, got -1.0"),
    (["--method", "featurized-ridge", "--ridge-lambda", "0"],
     "featurized ridge needs ridge_lambda > 0: its normal equations are singular "
     "at 0 for every table"),
    (["--method", "soft-impute", "--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["--method", "ice", "--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["--method", "soft-impute", "--lambda", "inf"], "lam must be finite, got inf"),
    (["--method", "ice", "--ridge-lambda", "inf"], "ridge penalty must be finite, got inf"),
    (["--method", "featurized-ridge", "--ridge-lambda", "inf"],
     "ridge penalty must be finite, got inf"),
])
def test_impute_refuses_a_negative_or_nan_penalty(tmp_path, capsys, monkeypatch, flags,
                                                  message):
    import imputebench.bench as bench

    data = _gen_dataset(tmp_path)
    mask, out = tmp_path / "m.csv", tmp_path / "o.csv"
    assert main(["mask", "--data", str(data), "--pattern", "mcar", "--out", str(mask)]) == 0
    # the imputer refuses the penalty when it is built, before the memory
    # rule sizes anything, so the error names the penalty and not the size
    monkeypatch.setattr(bench, "_physical_memory", lambda: 1024)
    assert main(["impute", "--data", str(data), "--mask", str(mask),
                 "--out", str(out), *flags]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.csv.json").exists()


def test_bench_partial_failure_exits_three(tmp_path, capsys):
    # a 4-column dataset cannot host the default 10-column block grid, so
    # every block group drops while the mcar groups survive
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="narrow.csv", rows=30, cols=4, rank=2)
    out_dir = tmp_path / "run"
    with pytest.warns(UserWarning):
        code = main([
            "bench", "--datasets", str(data_dir), "--patterns", "mcar,block",
            "--methods", "col-mean,knn", "--seeds", "1", "--out", str(out_dir),
        ])
    assert code == 3
    doc = json.loads((out_dir / "report.json").read_text())
    assert len(doc["dropped_groups"]) == 1
    assert "block" in doc["dropped_groups"][0]["pattern"]
    assert {c["pattern"] for c in doc["cells"]} == {"mcar"}


def test_bench_with_every_group_dropped_names_the_reasons(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="one.csv", rows=30, cols=1, rank=1)
    out_dir = tmp_path / "run"
    # no warning points at the report that is not written
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code = main([
            "bench", "--datasets", str(data_dir), "--patterns", "panel,two-phase",
            "--methods", "col-mean,knn", "--seeds", "1", "--out", str(out_dir),
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert "panel dropout needs at least 2 columns (1 group)" in err
    assert "two-phase needs at least 2 columns (1 group)" in err
    assert not out_dir.exists()


def test_report_rerenders_table(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv", rows=20, cols=5)
    out_dir = tmp_path / "run"
    main([
        "bench", "--datasets", str(data_dir), "--patterns", "mcar",
        "--methods", "col-mean,knn", "--seeds", "1", "--out", str(out_dir),
    ])
    capsys.readouterr()
    code = main(["report", "--report", str(out_dir / "report.json"),
                 "--out", str(tmp_path / "table.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Overall" in printed
    assert (tmp_path / "table.csv").read_text().startswith("pattern,")


def test_malformed_manifest_and_report_exit_two_naming_the_file(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [{"name": "d"}]}))
    assert main([
        "bench", "--datasets", str(manifest), "--patterns", "mcar",
        "--methods", "col-mean,knn", "--out", str(tmp_path / "o"),
    ]) == 2
    assert str(manifest) in capsys.readouterr().err

    for doc in ({"aggregates": {"per_pattern": {}, "overall": {}}},
                {"config": {"methods": [{"name": "col-mean"}]}}):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        assert main(["report", "--report", str(report)]) == 2
        assert str(report) in capsys.readouterr().err


def test_manifest_that_is_not_an_object_exits_two_naming_the_file(tmp_path, capsys):
    data_dir = tmp_path / "datasets"
    data_dir.mkdir()
    _gen_dataset(data_dir, name="d.csv")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": "datasets/d.csv"}]))
    assert main([
        "bench", "--datasets", str(manifest), "--patterns", "mcar",
        "--methods", "col-mean,knn", "--out", str(tmp_path / "o"),
    ]) == 2
    assert str(manifest) in capsys.readouterr().err


def test_internal_key_error_is_not_a_configuration_error(tmp_path, monkeypatch):
    import imputebench.cli as cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setitem(cli._COMMANDS, "report", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["report", "--report", str(tmp_path / "report.json")])


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: a child interpreter where importing
    # scipy fails still generates data, draws every mask and runs a grid
    import pathlib
    import subprocess
    import sys

    import imputebench

    package_root = str(pathlib.Path(imputebench.__file__).resolve().parents[1])
    snippet = """
import sys
sys.modules["scipy"] = None
from imputebench.cli import main
from imputebench.missingness import PATTERN_TAGS
out = sys.argv[1]
assert main(["gen", "--rows", "30", "--cols", "12", "--rank", "2", "--seed", "4",
             "--out", out + "/data/d.csv"]) == 0
for tag in PATTERN_TAGS:
    assert main(["mask", "--data", out + "/data/d.csv", "--pattern", tag,
                 "--seed", "5", "--out", out + "/" + tag + ".csv"]) == 0, tag
assert main(["bench", "--datasets", out + "/data", "--patterns", "mcar,self-masking",
             "--methods", "col-mean,ice", "--seeds", "1", "--out", out + "/run"]) == 0
assert not [name for name, mod in sys.modules.items()
            if name.split(".")[0] == "scipy" and mod is not None]
print("ok")
"""
    (tmp_path / "data").mkdir()
    run = subprocess.run(
        [sys.executable, "-c", snippet, str(tmp_path)],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-1] == "ok"
