import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ggp
import ggp.cli as cli_module
from ggp.cli import (
    RECORDS_HEADER,
    SUMMARY_HEADER,
    RunConfig,
    emit_summary,
    main,
    parse_config,
)
from ggp.errors import EmptyInput, GgpError, ParseError, ValidationError
from ggp.experiments import CheckOutcome, ExperimentRecord, RecordTable, RunResult
from ggp.params import ModelParams

MINIMAL_GUMBEL = {
    "experiment": "gumbel",
    "alpha": 0.0,
    "beta": 1.0,
    "n": 1000,
    "reps": 2000,
    "seed": 42,
}
CLT = {"experiment": "clt", "d": 2, "alpha": 0.0, "beta": 2.0, "lambda": 100.0,
       "reps": 1000, "seed": 1}
SCALING = {"experiment": "scaling_limit", "d": 2, "alphas_betas": [[0, 2]],
           "lambda_grid": [1e3], "L": 1.0, "reps": 2, "seed": 1}
SLLN = {"experiment": "slln", "d": 2, "alpha": 0.0, "beta": 2.0, "a": 4.0, "k_max": 4,
        "p": 0.6, "i": 2, "reps": 10, "seed": 1}
TAILS = {"experiment": "tails", "d": 2, "alpha": 0.0, "beta": 2.0, "lambda": 1e3,
         "M": 1.0, "t_grid": [1, 2, 3], "reps": 500, "seed": 1}
CONCENTRATION = {"experiment": "concentration", "d": 2, "alpha": 0.0, "beta": 2.0,
                 "lambda": 1e3, "y_grid": [1, 2], "i": 2, "reps": 2000, "seed": 1}
MOMENTS = {"experiment": "moments", "d": 2, "alpha": 0.0, "beta": 2.0,
           "lambda_grid": [100.0, 1000.0], "reps": 200, "seed": 1}
INTENSITY = {"experiment": "intensity", "d": 2, "alpha": 0.0, "beta": 2.0, "lambda": 1e3,
             "window": {"spatial_radius": 2.0, "h_min": -5.0, "h_max": 1.0},
             "bins": [1, 4], "reps": 10, "seed": 1}
VERTEX = {"experiment": "vertex_correspondence", "d": 2, "alpha": 0.0, "beta": 2.0,
          "lambda": 1e4, "L": 1.0, "reps": 50, "seed": 1}


class TestParseConfig:
    def test_minimal_gumbel_defaults(self, monkeypatch):
        monkeypatch.delenv("GGP_WORKERS", raising=False)
        cfg = parse_config(json.dumps(MINIMAL_GUMBEL))
        assert cfg.experiment == "gumbel"
        assert cfg.output_format == "csv"
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        assert cfg.workers == usable

    def test_default_workers_count_usable_cores(self, monkeypatch):
        monkeypatch.delenv("GGP_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert parse_config(json.dumps(MINIMAL_GUMBEL)).workers == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parse_config(json.dumps(MINIMAL_GUMBEL)).workers == 64

    def test_env_workers_default(self, monkeypatch):
        monkeypatch.setenv("GGP_WORKERS", "3")
        cfg = parse_config(json.dumps(MINIMAL_GUMBEL))
        assert cfg.workers == 3

    def test_explicit_workers_ignore_env(self, monkeypatch):
        monkeypatch.setenv("GGP_WORKERS", "abc")
        assert parse_config(json.dumps(dict(MINIMAL_GUMBEL, workers=2))).workers == 2
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(MINIMAL_GUMBEL))
        assert exc.value.field == "GGP_WORKERS"

    def test_unknown_key_rejected(self):
        bad = dict(MINIMAL_GUMBEL, gamma=1.0)
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(bad))
        assert exc.value.field == "gamma"

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{"experiment": "gumbel",\n  broken')
        assert exc.value.line == 2

    def test_missing_required_key(self):
        bad = dict(MINIMAL_GUMBEL)
        del bad["n"]
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(bad))
        assert exc.value.field == "n"

    def test_reps_bound_is_the_stream_stride(self, tmp_path, capsys):
        # replication streams are keyed group * 1_000_000 + rep; the
        # experiment's check judges the bound, parse_config only the type
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SCALING, reps=999_999)))
        assert main(["validate", "--config", str(path)]) == 0
        path.write_text(json.dumps(dict(SCALING, reps=1_000_000)))
        assert parse_config(path.read_text()).reps == 1_000_000
        assert main(["validate", "--config", str(path)]) == 2
        assert "reps:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["seed", "reps", "workers"])
    def test_bool_rejected_where_integer_wanted(self, field):
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(dict(MINIMAL_GUMBEL, **{field: True})))
        assert exc.value.field == field

    @pytest.mark.parametrize("field, value", [
        ("alpha", "x"), ("beta", None), ("n", True), ("alpha", [0.0]),
    ])
    def test_non_numeric_gumbel_field_named(self, field, value):
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(dict(MINIMAL_GUMBEL, **{field: value})))
        assert exc.value.field == field

    @pytest.mark.parametrize("config, field", [
        (dict(CLT, alpha="x"), "alpha"),
        (dict(CLT, beta=True), "beta"),
        (dict(CLT, **{"lambda": "abc"}), "lambda"),
        (dict(CLT, d=True), "d"),
        (dict(CLT, d="3"), "d"),
        (dict(SCALING, lambda_grid=["a"]), "lambda_grid"),
        (dict(SCALING, lambda_grid=5), "lambda_grid"),
        (dict(SCALING, lambda_grid="abc"), "lambda_grid"),
        (dict(SCALING, alphas_betas=[[0]]), "alphas_betas"),
        (dict(SCALING, alphas_betas=[["x", 2]]), "alphas_betas"),
        (dict(SCALING, alphas_betas=[[0, True]]), "alphas_betas"),
        (dict(SCALING, alphas_betas=3), "alphas_betas"),
    ])
    def test_non_numeric_model_field_named(self, config, field):
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(config))
        assert exc.value.field == field

    def test_malformed_model_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CLT, **{"lambda": "abc"})))
        assert main(["validate", "--config", str(path)]) == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        (dict(SCALING, L="x"), "L"),
        (dict(SCALING, L=True), "L"),
        (dict(SCALING, grid_n=True), "grid_n"),
        (dict(SCALING, grid_n=41.0), "grid_n"),
        (dict(SLLN, k_max=True), "k_max"),
        (dict(SLLN, k_max=4.5), "k_max"),
        (dict(SLLN, i="2"), "i"),
        (dict(SLLN, p=None), "p"),
        (dict(SLLN, a=False), "a"),
        (dict(TAILS, M="1"), "M"),
        (dict(TAILS, M=True), "M"),
        (dict(TAILS, t_grid=[1, True]), "t_grid"),
        (dict(TAILS, t_grid=[]), "t_grid"),
        (dict(TAILS, t_grid=3), "t_grid"),
        (dict(CONCENTRATION, y_grid=["a"]), "y_grid"),
        (dict(CONCENTRATION, i=True), "i"),
        (dict(CONCENTRATION, i=None), "i"),
        (dict(INTENSITY, bins=[1, True]), "bins"),
        (dict(INTENSITY, bins=[1, 2.5]), "bins"),
        (dict(INTENSITY, bins=[4]), "bins"),
        (dict(INTENSITY, window=3), "window"),
        (dict(INTENSITY, window={"spatial_radius": 2.0, "h_min": -5.0}), "window"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_max="1")), "window.h_max"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], spatial_radius=True)),
         "window.spatial_radius"),
        # the JSON types of bins, L and grid_n; the runners' checks judge
        # their ranges (test_validate_rejects_what_run_rejects)
        (dict(INTENSITY, bins=[1, 2, 3]), "bins"),
        (dict(INTENSITY, bins=[1, 2**1100]), "bins"),
        (dict(SCALING, L=math.nan), "L"),
        (dict(SCALING, L=[1.0]), "L"),
        (dict(SCALING, grid_n="41"), "grid_n"),
        (dict(SCALING, grid_n=2**1100), "grid_n"),
        # empty lists, and reps that is no integer (the checks judge its
        # range: test_validate_rejects_what_run_rejects)
        (dict(SCALING, alphas_betas=[]), "alphas_betas"),
        (dict(SCALING, lambda_grid=[]), "lambda_grid"),
        (dict(SCALING, reps=2.5), "reps"),
        # numbers no float holds, and NaN or Infinity where a finite number is due
        (dict(TAILS, **{"lambda": 2**1100}), "lambda"),
        (dict(MINIMAL_GUMBEL, n=math.inf), "n"),
        (dict(CLT, alpha=math.nan), "alpha"),
        # a string where the reps integer is due
        (dict(SCALING, reps="2"), "reps"),
    ])
    def test_bad_experiment_field_exits_2_naming_it(self, tmp_path, capsys, config, field):
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(config))
        assert exc.value.field == field
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        dict(SLLN, i=5), dict(SLLN, i=0), dict(CONCENTRATION, i=9), dict(CONCENTRATION, i=0),
    ])
    def test_unjudgeable_intrinsic_index_exits_2_naming_it(self, tmp_path, capsys, config):
        # records carry only V_{d-1} and V_d; the runner refuses before sampling
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "i:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, field", [
        (dict(SLLN, a=1.0), "a"),
        (dict(SLLN, i=5), "i"),
        (dict(SLLN, i=0), "i"),
        (dict(SLLN, k_max=3), "k_max"),
        (dict(SLLN, p=0.0, beta=1.0), "p"),
        (dict(CONCENTRATION, i=9), "i"),
        (dict(CONCENTRATION, reps=1999), "reps"),
        (dict(SCALING, L=2.5), "L"),
        (dict(MINIMAL_GUMBEL, reps=99), "reps"),
        (dict(MINIMAL_GUMBEL, n=99), "n"),
        (dict(CLT, reps=999), "reps"),
        (dict(TAILS, reps=499), "reps"),
        (dict(MOMENTS, reps=199), "reps"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_min=-math.inf)), "window"),
        (dict(MOMENTS, reps=1_000_000), "reps"),
        (dict(VERTEX, L=2.5), "L"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_max=math.inf)), "window"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_max=1000.0)), "window"),
        (dict(SLLN, a=1e100), "a"),  # a**4 overflows
        (dict(MINIMAL_GUMBEL, n=2**63), "n"),
        (dict(TAILS, M=-1), "M"),
        (dict(TAILS, M=0), "M"),
        # the window must lie in the rescaled space of lambda and of each
        # comparison intensity; at lambda = 1e4, ||v|| <= 10.8 and h <= 11.8
        (dict(INTENSITY, **{"lambda": 1e4}, window=dict(INTENSITY["window"], spatial_radius=100)),
         "window"),
        (dict(INTENSITY, **{"lambda": 1e4}, window=dict(INTENSITY["window"], h_max=100)),
         "window"),
        # model ranges, judged by each check through validate_params
        (dict(MINIMAL_GUMBEL, alpha=-2.0), "alpha"),
        (dict(CLT, d=1), "d"),
        # ranges the runners' checks judge for the Python API too
        (dict(INTENSITY, bins=[0, 4]), "bins"),
        (dict(INTENSITY, bins=[1, -2]), "bins"),
        (dict(SCALING, L=-1), "L"),
        (dict(SCALING, L=0), "L"),
        (dict(SCALING, grid_n=0), "grid_n"),
        (dict(SCALING, grid_n=1), "grid_n"),
        # the window's own ranges, named by their config keys
        (dict(INTENSITY, window=dict(INTENSITY["window"], spatial_radius=-1.0)),
         "window.spatial_radius"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_min=1.0)), "window.h_min"),
        (dict(INTENSITY, window=dict(INTENSITY["window"], h_min=2.0)), "window.h_min"),
        # a ball grid of grid_n^(d-1) points above MAX_GRID_POINTS
        (dict(SCALING, d=100, alphas_betas=[[0, 4]], lambda_grid=[1.1, 1.15, 1.2], grid_n=2,
              reps=20), "grid_n"),
        (dict(TAILS, d=4), "d"),
        # one replication can never be judged
        (dict(SCALING, reps=1), "reps"),
        (dict(VERTEX, reps=1), "reps"),
        (dict(SLLN, reps=1), "reps"),
        # reps past the stream bound, and fewer than one replication
        (dict(SCALING, reps=1_000_000), "reps"),
        (dict(SCALING, reps=0), "reps"),
        # a model out of range, for every experiment that builds one
        (dict(SLLN, d=1, i=0), "d"),
        (dict(SLLN, alpha=-1.0), "alpha"),
        (dict(SCALING, d=1), "d"),
        (dict(SCALING, alphas_betas=[[-2, 2]]), "alpha"),
        (dict(MOMENTS, lambda_grid=[100.0, -1.0]), "lambda"),
        (dict(INTENSITY, beta=0.5), "beta"),
        (dict(TAILS, **{"lambda": 0}), "lambda"),
        (dict(CONCENTRATION, alpha=-1.5), "alpha"),
        (dict(VERTEX, d=1), "d"),
    ])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, config, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_small_intensity_rejected_by_validate(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TAILS, **{"lambda": 1.5})))
        assert main(["validate", "--config", str(path)]) == 2
        assert "IntensityTooSmall" in capsys.readouterr().err

    def test_comparison_intensity_without_radius_rejected(self, tmp_path, capsys):
        # lambda = 1e12 has a critical radius for this law; the intensity
        # runner's comparison intensity 1e4 has none
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(INTENSITY, d=3, beta=10.0, **{"lambda": 1e12})))
        for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main([*command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "IntensityTooSmall" in err and "lambda = 1e+04" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [MINIMAL_GUMBEL, CLT, SCALING, SLLN, TAILS,
                                        CONCENTRATION, INTENSITY, MOMENTS, VERTEX])
    def test_validate_samples_nothing(self, tmp_path, capsys, monkeypatch, config):
        def refuse(*args, **kwargs):
            raise AssertionError("validate called a runner")

        for name in ("run_gumbel", "run_intensity", "run_scaling_limit", "run_moments",
                     "run_clt", "run_tails", "run_slln_trend", "concentration_check",
                     "run_vertex_correspondence"):
            monkeypatch.setattr(cli_module, name, refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [SLLN, TAILS, CONCENTRATION, INTENSITY, SCALING, VERTEX])
    def test_well_typed_experiment_fields_accepted(self, config):
        assert parse_config(json.dumps(config)).options == {
            k: v for k, v in config.items() if k not in ("experiment", "reps", "seed")}

    def test_reserved_streams_unreachable(self, tmp_path, capsys):
        # group 2000's first replication stream would be 2000 * 1_000_000, the
        # first bootstrap stream, so 2 laws x 1001 intensities are too many
        path = tmp_path / "cfg.json"
        lams = [1e3 + k for k in range(1001)]
        path.write_text(json.dumps(dict(SCALING, alphas_betas=[[0, 2], [1, 1]],
                                        lambda_grid=lams)))
        for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert main([*command, "--config", str(path)]) == 2
            assert "lambda_grid:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        path.write_text(json.dumps(dict(MOMENTS, lambda_grid=[1e3 + k for k in range(1000)])))
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("text, message", [
        # an integer literal past Python's digit limit
        ('{"experiment": "clt", "d": 1%s}' % ("0" * 4400), "parse failure"),
        # finite inputs whose normalization constants overflow
        (json.dumps(dict(TAILS, alpha=1000.0)), "ParameterOverflow"),
        (json.dumps(dict(TAILS, d=400)), "ParameterOverflow"),
    ])
    def test_unrepresentable_input_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


# JSON values of every kind a config key can hold, and some it cannot;
# numbers and lists of numbers most often, so many configs reach the checks.
_NUMBERS = st.one_of(
    st.integers(-3, 12), st.integers(), st.floats(),
    st.sampled_from([0.5, 1e3, 1e300, 2**1100, -math.inf, math.nan]),
)
_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), _NUMBERS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["spatial_radius", "h_min", "h_max", "x"]), inner,
                        max_size=4),
    ),
    max_leaves=8,
)
_VALUES = st.one_of(_NUMBERS, _NUMBERS, st.lists(_NUMBERS, min_size=1, max_size=4), _ANY)
_KEYS = sorted({key for entry in cli_module._REGISTRY.values()
                for key in [*entry.required, *entry.optional]}
               | cli_module._COMMON_KEYS | {"gamma"})
_VALID = [MINIMAL_GUMBEL, CLT, SCALING, SLLN, TAILS, CONCENTRATION, MOMENTS, INTENSITY, VERTEX]


@st.composite
def _configs(draw):
    """A valid config with a key dropped or some set to arbitrary values,
    its own keys as often as any other."""
    raw = dict(draw(st.sampled_from(_VALID)))
    for key in draw(st.lists(st.sampled_from(sorted(raw)), max_size=1)):
        del raw[key]
    keys = st.one_of(st.sampled_from(sorted(raw)), st.sampled_from(_KEYS))
    raw.update(draw(st.dictionaries(keys, _VALUES, max_size=2)))
    return raw


class TestParseConfigProperty:
    @given(raw=_configs())
    def test_config_or_ggp_error(self, raw):
        # a config parses and its validate check runs, or a GgpError names the
        # problem: `ggp validate` exits 0 or 2, never with a traceback
        try:
            config = parse_config(json.dumps(raw))
            assert isinstance(config, RunConfig)
            check, _ = cli_module._plan(config)
            check()
        except GgpError:
            pass


class TestOneArgumentList:
    """Each experiment's check and runner take one argument list, which
    `validate` hands the check and `run` the runner."""

    @pytest.mark.parametrize("experiment", cli_module.EXPERIMENTS)
    def test_check_takes_its_runners_arguments(self, experiment):
        entry = cli_module._REGISTRY[experiment]
        check, runner = inspect.signature(entry.check), inspect.signature(entry.runner)
        assert list(check.parameters.values()) == [
            p for name, p in runner.parameters.items() if name not in ("seed", "workers")]

    @pytest.mark.parametrize("config", [MINIMAL_GUMBEL, CLT, SCALING, dict(SCALING, grid_n=11),
                                        SLLN, TAILS, CONCENTRATION,
                                        {k: v for k, v in CONCENTRATION.items() if k != "i"},
                                        INTENSITY, MOMENTS, VERTEX])
    def test_validate_checks_what_run_hands_the_runner(self, tmp_path, monkeypatch, config):
        entry = cli_module._REGISTRY[config["experiment"]]
        calls = {}

        def check(*args, **kwargs):
            calls["check"] = (args, kwargs)

        def runner(*args, seed, workers, **kwargs):
            calls["runner"] = (args, kwargs)
            calls["seed, workers"] = (seed, workers)
            return RunResult(config["experiment"], [RecordTable.from_rows(
                config["experiment"], ModelParams(2, 0.0, 2.0, 1.0), seed, [0], [{"x": 1.0}],
                [0.0])])

        monkeypatch.setattr(cli_module, entry.check.__name__, check)
        monkeypatch.setattr(cli_module, entry.runner.__name__, runner)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--seed", "7", "--workers", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert calls["check"] == calls["runner"]
        assert calls["seed, workers"] == (7, 3)


class TestVertexCorrespondenceCli:
    def test_tiny_run_exits_0_with_records(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(VERTEX))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 0
        assert "PASS vertex_correspondence_rate" in capsys.readouterr().out
        records = tmp_path / "o" / "vertex_correspondence_records.csv"
        rows = list(csv.reader(records.read_text().splitlines()))
        assert rows[0] == RECORDS_HEADER
        assert {int(r[6]) for r in rows[1:]} == set(range(50)) | {-1}


class TestRunAndDeterminism:
    def config_path(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_gumbel_run_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--config", self.config_path(tmp_path, MINIMAL_GUMBEL),
                     "--out", str(tmp_path / "out"), "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gumbel_ks" in out
        records = (tmp_path / "out" / "gumbel_records.csv").read_bytes()
        summary = (tmp_path / "out" / "gumbel_summary.csv").read_bytes()
        assert records.startswith(",".join(RECORDS_HEADER).encode())
        assert summary.startswith(",".join(SUMMARY_HEADER).encode())

    def test_byte_identical_rerun_and_worker_invariance(self, tmp_path):
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        paths = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
            paths.append((out / "gumbel_records.csv").read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_json_output_holds_the_csv_rows(self, tmp_path):
        tiny = dict(MINIMAL_GUMBEL, reps=100, seed=5)
        for fmt in ("csv", "json"):
            cfg = self.config_path(tmp_path, dict(tiny, output_format=fmt))
            assert main(["run", "--config", cfg, "--out", str(tmp_path / fmt),
                         "--workers", "1"]) in (0, 1)
        for kind, header in (("records", RECORDS_HEADER), ("summary", SUMMARY_HEADER)):
            with open(tmp_path / "csv" / f"gumbel_{kind}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            payload = json.loads((tmp_path / "json" / f"gumbel_{kind}.json").read_text())
            assert rows[0] == header and len(rows) > 1
            assert all(isinstance(item, dict) and sorted(item) == sorted(header)
                       for item in payload)
            assert [[item[key] for key in header] for item in payload] == rows[1:]

    def test_seed_override_changes_records(self, tmp_path):
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        main(["run", "--config", cfg, "--out", str(tmp_path / "x"), "--workers", "1"])
        main(["run", "--config", cfg, "--seed", "43", "--out", str(tmp_path / "y"),
              "--workers", "1"])
        a = (tmp_path / "x" / "gumbel_records.csv").read_bytes()
        b = (tmp_path / "y" / "gumbel_records.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-3"), ("--seed", "-1"),
    ])
    def test_bad_override_exits_2_naming_field(self, tmp_path, capsys, flag, value):
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), flag, value])
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        code = main(["run", "--config", cfg, "--out", str(blocker / "sub"),
                     "--workers", "1"])
        assert code != 0

    def test_validate_command(self, tmp_path, capsys):
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        assert main(["validate", "--config", cfg]) == 0
        assert "ok" in capsys.readouterr().out
        bad = self.config_path(tmp_path, dict(MINIMAL_GUMBEL, alpha=-3.0))
        assert main(["validate", "--config", bad]) == 2

    def test_unjudged_run_exits_1_and_writes_records(self, tmp_path, capsys):
        # in d=30 no cloud of lambda = 5 points has a hull: every replication is skipped
        cfg = self.config_path(tmp_path, dict(CONCENTRATION, d=30, **{"lambda": 5.0},
                                              i=30, y_grid=[1]))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAIL concentration_judged: not judged: 0 of 2000" in captured.out
        assert "Traceback" not in captured.err
        rows = (tmp_path / "o" / "concentration_records.csv").read_text().splitlines()
        assert len(rows) == 1 + 2000

    def test_failing_check_gives_nonzero_exit(self, tmp_path, monkeypatch):
        fake = RunResult(
            experiment="gumbel",
            tables=[RecordTable.from_rows("gumbel", ModelParams(1, 0.0, 1.0, 1.0), 1, [0],
                                          [{"x": 1.0}], [0.0])],
            checks=[CheckOutcome("forced", "FAIL", "forced failure")],
        )
        monkeypatch.setattr(cli_module, "_dispatch", lambda config: fake)
        cfg = self.config_path(tmp_path, MINIMAL_GUMBEL)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def records_csv(records):
    """Records CSV text written from ExperimentRecords, one record per
    replication, formatted record by record: the writer's old path."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RECORDS_HEADER)
    for rec in records:
        for metric in sorted(rec.metrics):
            writer.writerow([rec.experiment, repr(float(rec.lam)), str(rec.d),
                             repr(float(rec.alpha)), repr(float(rec.beta)), str(rec.seed),
                             str(rec.replication), metric, repr(float(rec.metrics[metric]))])
    return buf.getvalue()


class TestRecordsView:
    # 250 maxima: blocks of 100, 100 and 50
    GUMBEL = {"experiment": "gumbel", "alpha": 0.5, "beta": 1.5, "n": 1000, "reps": 250,
              "seed": 3}
    # at seed 11, replications 3 and 5 of lambda = 10 have no hull in d = 4
    SKIPPING_SLLN = {"experiment": "slln", "d": 4, "alpha": 0, "beta": 2, "a": 10, "k_max": 4,
                     "p": 0.6, "i": 4, "reps": 8, "seed": 11}

    def run(self, tmp_path, monkeypatch, config):
        """The RunResult of `ggp run` on config at one worker, and the
        records file it wrote."""
        results = []
        dispatch = cli_module._dispatch
        monkeypatch.setattr(cli_module, "_dispatch",
                            lambda cfg: results.append(dispatch(cfg)) or results[-1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", "1"]) in (0, 1)
        (result,) = results
        return result, (out / f"{config['experiment']}_records.csv").read_bytes()

    @pytest.mark.parametrize("config", [GUMBEL, SKIPPING_SLLN], ids=["gumbel", "slln_d4"])
    def test_view_rebuilds_the_written_records(self, tmp_path, monkeypatch, config):
        result, written = self.run(tmp_path, monkeypatch, config)
        records = result.records
        assert isinstance(records, tuple)
        if config["experiment"] == "slln":
            assert [r.replication for r in records if r.metrics.get("skipped")] == [3, 5]
        assert records_csv(records).encode() == written

    def test_run_builds_no_record(self, tmp_path, monkeypatch):
        built = []
        init = ExperimentRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExperimentRecord, "__init__", counting_init)
        for k, config in enumerate([self.GUMBEL, self.SKIPPING_SLLN]):
            (tmp_path / str(k)).mkdir()
            result, _ = self.run(tmp_path / str(k), monkeypatch, config)
            assert built == []
            assert len(result.records) == len(built) > 0  # the count sees the view's records
            built.clear()


class TestSummaries:
    def make_tables(self):
        return [
            RecordTable.from_rows("moments", ModelParams(2, 0.0, 2.0, 100.0), 1, range(4),
                                  [{"f0": float(10 + rep)} for rep in range(4)], [0.0] * 4),
            RecordTable.from_rows("moments", ModelParams(2, 0.0, 2.0, 10.0), 1, [0],
                                  [{"f0": 5.0}], [0.0]),
        ]

    def test_group_stats_and_ordering(self):
        rows = emit_summary(self.make_tables())
        assert [r[1] for r in rows] == ["10.0", "100.0"]  # ascending lambda
        lam100 = rows[1]
        assert lam100[3] == "4"
        assert float(lam100[4]) == pytest.approx(11.5, rel=1e-15)
        var = ((10 - 11.5) ** 2 + (11 - 11.5) ** 2 + (12 - 11.5) ** 2 + (13 - 11.5) ** 2) / 3
        assert float(lam100[5]) == pytest.approx(var, rel=1e-15)
        assert float(lam100[6]) == pytest.approx(1.96 * math.sqrt(var / 4), rel=1e-12)

    def test_single_record_group_has_empty_variance(self):
        rows = emit_summary(self.make_tables())
        assert rows[0][5] == "" and rows[0][6] == ""

    def test_summary_means_match_recompute(self):
        records = RunResult("moments", self.make_tables()).records
        rows = emit_summary(self.make_tables())
        for row in rows:
            lam, metric = float(row[1]), row[2]
            vals = [r.metrics[metric] for r in records if r.lam == lam and metric in r.metrics]
            assert float(row[4]) == pytest.approx(sum(vals) / len(vals), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            emit_summary([])

    def test_summarize_command_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MINIMAL_GUMBEL))
        main(["run", "--config", str(cfg), "--out", str(tmp_path), "--workers", "1"])
        capsys.readouterr()
        assert main(["summarize", str(tmp_path / "gumbel_records.csv")]) == 0
        out = capsys.readouterr().out
        reader = csv.reader(out.splitlines())
        header = next(reader)
        assert header == SUMMARY_HEADER
        direct = (tmp_path / "gumbel_summary.csv").read_text()
        assert out.replace("\r\n", "\n") == direct.replace("\r\n", "\n")

    @pytest.mark.parametrize("row, message", [
        ("slln,10.0,2", "line 3, column alpha: missing"),
        ("slln,abc,2,0.0,2.0,5,0,f0,4.0", "line 3, column lambda: cannot read 'abc' as float"),
        ("slln,10.0,2,0.0,2.0,5,0.5,f0,4.0",
         "line 3, column replication: cannot read '0.5' as int"),
        ("slln,10.0,2,0.0,2.0,5,0,f0,4.0,1", "line 3: 10 columns, expected 9"),
    ], ids=["short_row", "not_a_number", "not_an_integer", "long_row"])
    def test_summarize_malformed_row_names_line_and_column(self, tmp_path, capsys, row, message):
        # a bad row once raised a bare IndexError or ValueError: a traceback
        # and exit 1, the status of a failed check
        path = tmp_path / "records.csv"
        path.write_text(",".join(RECORDS_HEADER) + "\nslln,10.0,2,0.0,2.0,5,0,f0,4.0\n" + row + "\n")
        assert main(["summarize", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"

    @pytest.mark.parametrize("command", [["summarize"], ["validate", "--config"],
                                         ["run", "--config"]])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command):
        # bytes that are not UTF-8 once ended in a UnicodeDecodeError traceback
        path = tmp_path / "latin1.txt"
        path.write_bytes(",".join(RECORDS_HEADER).encode() + b"\nslln,10.0\xff\n")
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: IoError: cannot read {path}: ") and "can't decode" in err


class TestGoldenHeader:
    def test_records_header_pinned(self):
        # schema version 1: any change here is a breaking format change
        assert RECORDS_HEADER == [
            "experiment", "lambda", "d", "alpha", "beta", "seed", "replication",
            "metric", "value",
        ]
        assert SUMMARY_HEADER == [
            "experiment", "lambda", "metric", "n", "mean", "var", "ci95",
        ]


README_EXAMPLES = re.findall(r"```json\n(.*?)```",
                             (Path(__file__).parent.parent / "README.md").read_text(), re.S)
# Configs whose validate check computes a critical radius, hence loads scipy.special.
RADIUS_CONFIGS = [INTENSITY, SCALING, TAILS, VERTEX]
NO_RADIUS_CONFIGS = [MINIMAL_GUMBEL, CLT, SLLN, CONCENTRATION, MOMENTS]


def modules_after(statements: str, cwd, roots=("scipy",)) -> set:
    """Names of the modules in roots, or under them, that a fresh interpreter
    loads when it imports this suite's ggp and runs statements."""
    script = (f"import json, sys\nsys.path.insert(0, {str(Path(ggp.__file__).parent.parent)!r})\n"
              f"{statements}\n"
              f"print(json.dumps([m for m in sys.modules if any(m == r or m.startswith(r + '.') "
              f"for r in {roots!r})]))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportPolicy:
    """Parsing a config loads no scipy, `ggp validate` at most scipy.special
    (gammaln, for a critical radius), and neither loads the process pool."""

    @staticmethod
    def write(directory, configs):
        """Each config (JSON text or a dict) in its own file under directory."""
        directory.mkdir()
        paths = []
        for k, config in enumerate(configs):
            path = directory / f"cfg{k}.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            paths.append(str(path))
        return paths

    @staticmethod
    def readme(*experiments):
        return [c for c in README_EXAMPLES if json.loads(c)["experiment"] in experiments]

    def test_parse_and_validate_load_no_scipy(self, tmp_path):
        assert len(README_EXAMPLES) >= 4
        parsed = self.write(tmp_path / "parse", README_EXAMPLES)
        validated = self.write(tmp_path / "validate",
                               self.readme("gumbel", "moments") + NO_RADIUS_CONFIGS)
        statements = ("import ggp, ggp.cli\n"
                      f"for path in {parsed!r}:\n"
                      "    ggp.cli.parse_config(open(path).read())\n"
                      f"for path in {validated!r}:\n"
                      "    assert ggp.cli.main(['validate', '--config', path]) == 0")
        assert modules_after(statements, tmp_path) == set()

    def test_validate_with_a_critical_radius_loads_only_scipy_special(self, tmp_path):
        special = modules_after("import scipy.special", tmp_path)
        radius = self.write(tmp_path / "validate",
                            self.readme("intensity", "scaling_limit") + RADIUS_CONFIGS)
        statements = ("import ggp.cli\n"
                      f"for path in {radius!r}:\n"
                      "    assert ggp.cli.main(['validate', '--config', path]) == 0")
        loaded = modules_after(statements, tmp_path)
        assert "scipy.special" in loaded
        assert loaded <= special, sorted(loaded - special)

    def test_validate_loads_no_process_pool(self, tmp_path):
        # concurrent.futures.process and multiprocessing load at the first
        # pool a run starts
        validated = self.write(tmp_path / "validate", README_EXAMPLES)
        statements = ("import ggp.cli\n"
                      f"for path in {validated!r}:\n"
                      "    assert ggp.cli.main(['validate', '--config', path]) == 0")
        roots = ("concurrent.futures.process", "multiprocessing")
        assert modules_after(statements, tmp_path, roots) == set()
