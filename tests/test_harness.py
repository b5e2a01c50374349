"""Tests for the experiment driver: signal generation, runs, files, CLI.

Signal generation is checked against the statistics it promises (planted
magnitudes clear twice the realized noise level, gaussian tails hit their
energy target on average, adversarial tails stay inside one sup-norm ball).
Run records are checked for the exact-sparse contract, reproducibility up
to wall time, and lossless CSV round trips. CLI subcommands are driven
through main() with real files under tmp_path.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from sparsefft.cli import main
from sparsefft.core import ParameterError, Tunables
from sparsefft.harness import (
    CSV_HEADER,
    SIGNAL_MODELS,
    ExperimentSpec,
    RunRecord,
    generate_signal,
    read_csv,
    run_experiment,
    run_sweep,
    spec_digest,
    write_csv,
    write_json,
)


def tail_of(x, truth):
    """Dense time-domain tail left after removing the planted head."""
    return x.values - truth.to_dense("time").values


def circular_diameter(coords, n):
    """Largest circular sup-distance between any two values in coords."""
    s = np.sort(np.unique(np.asarray(coords, dtype=np.int64) % n))
    if s.size <= 1:
        return 0
    gaps = np.diff(np.concatenate([s, [s[0] + n]]))
    return int(n - gaps.max())


class TestGenerateSignal:
    def test_exact_sparse_has_no_tail(self):
        spec = ExperimentSpec(n=256, d=1, k=8, signal_model="exact-sparse")
        x, truth, mu = generate_signal(spec, seed=3)
        assert x.domain == "time"
        assert mu == 0.0
        assert np.abs(tail_of(x, truth)).max() == 0.0
        assert len(truth.entries) == 8
        mags = np.abs(np.array(list(truth.entries.values())))
        assert mags.min() >= 1.0 and mags.max() <= 2.0

    def test_truth_matches_signal_on_its_support(self):
        spec = ExperimentSpec(
            n=64, d=2, k=6, signal_model="sparse-plus-gaussian-tail"
        )
        x, truth, _ = generate_signal(spec, seed=11)
        for idx, val in truth.entries.items():
            assert x.values.reshape(-1)[idx] == val

    def test_heads_clear_twice_mu_at_minimum_snr(self):
        spec = ExperimentSpec(
            n=512, d=1, k=10, signal_model="sparse-plus-gaussian-tail", snr=2.0
        )
        for seed in range(20):
            _, truth, mu = generate_signal(spec, seed)
            assert mu > 0.0
            mags = np.abs(np.array(list(truth.entries.values())))
            assert mags.min() >= 2.0 * mu
            assert mags.max() <= 2.0 * 2.0 * mu + 1e-12

    def test_mu_is_tail_norm_over_sqrt_k(self):
        spec = ExperimentSpec(
            n=256, d=1, k=16, signal_model="sparse-plus-gaussian-tail"
        )
        x, truth, mu = generate_signal(spec, seed=7)
        want = np.linalg.norm(tail_of(x, truth)) / np.sqrt(16)
        assert abs(mu - want) < 1e-12 * want

    def test_gaussian_tail_energy_hits_target_on_average(self):
        spec = ExperimentSpec(
            n=256, d=1, k=8, signal_model="sparse-plus-gaussian-tail"
        )
        total = 0.0
        for seed in range(100):
            x, truth, _ = generate_signal(spec, seed)
            total += float(np.linalg.norm(tail_of(x, truth)) ** 2)
        mean = total / 100.0
        assert abs(mean - 8.0) <= 0.05 * 8.0

    def test_adversarial_tail_lives_in_one_ball(self):
        spec1 = ExperimentSpec(
            n=128, d=1, k=4, signal_model="sparse-plus-adversarial-bucket-tail"
        )
        for seed in range(5):
            x, truth, _ = generate_signal(spec1, seed)
            support = np.nonzero(tail_of(x, truth))[0]
            assert circular_diameter(support, 128) <= 2 * (128 // 32)

        spec2 = ExperimentSpec(
            n=64, d=2, k=4, signal_model="sparse-plus-adversarial-bucket-tail"
        )
        for seed in range(5):
            x, truth, _ = generate_signal(spec2, seed)
            rows, cols = np.nonzero(tail_of(x, truth))
            assert circular_diameter(rows, 64) <= 2 * (64 // 32)
            assert circular_diameter(cols, 64) <= 2 * (64 // 32)

    def test_oversized_sparsity_is_rejected(self):
        spec = ExperimentSpec(n=8, d=1, k=3)
        with pytest.raises(ParameterError):
            generate_signal(spec, seed=0)


class TestRunExperiment:
    def test_exact_sparse_recovers_support_and_values(self):
        spec = ExperimentSpec(
            n=1024, d=1, k=8, signal_model="exact-sparse", seeds=[0, 1, 2, 3, 4]
        )
        records = run_experiment(spec)
        assert [r.seed for r in records] == [0, 1, 2, 3, 4]
        digest = spec_digest(spec)
        for rec in records:
            assert rec.spec_hash == digest
            assert rec.support_recall == 1.0
            assert rec.support_precision == 1.0
            # Tail energy is zero, so the ratio denominator is floored at
            # (1e-9 * ||x||_2)^2; a ratio below 1 certifies the residual
            # sits under that floor.
            assert rec.l2_error_ratio < 1.0
            assert rec.samples_total == (
                rec.samples_location
                + rec.samples_estimation
                + rec.samples_infnorm
                + rec.samples_constsnr
            )
            assert rec.samples_location > 0
            assert rec.samples_estimation > 0
            assert rec.generate_ms > 0.0 and rec.recover_ms > 0.0

    def test_noisy_models_keep_full_recall(self):
        for model in SIGNAL_MODELS[1:]:
            spec = ExperimentSpec(
                n=1024, d=1, k=8, signal_model=model, snr=10.0, seeds=[0, 1]
            )
            for rec in run_experiment(spec):
                assert rec.support_recall == 1.0
                assert rec.l2_error_ratio < 1.0

    def test_record_rejects_inconsistent_total(self):
        with pytest.raises(ParameterError):
            RunRecord(
                spec_hash="abc",
                seed=0,
                l2_error_ratio=0.0,
                support_precision=1.0,
                support_recall=1.0,
                samples_location=10,
                samples_estimation=10,
                samples_infnorm=0,
                samples_constsnr=0,
                samples_total=21,
                generate_ms=1.0,
                recover_ms=1.0,
            )


class TestSweep:
    def test_samples_grow_with_sparsity(self):
        base = ExperimentSpec(n=4096, d=1, k=8, signal_model="exact-sparse")
        results = run_sweep(base, "k", [8, 16, 32, 64])
        assert list(results.keys()) == [8, 16, 32, 64]
        totals = [results[k][0].samples_total for k in (8, 16, 32, 64)]
        assert totals == sorted(totals)
        assert totals[0] < totals[-1]
        for k in (8, 16, 32, 64):
            assert results[k][0].support_recall == 1.0

    def test_sweep_writes_tidy_csv(self, tmp_path):
        base = ExperimentSpec(n=256, d=1, k=4, signal_model="exact-sparse")
        path = tmp_path / "sweep.csv"
        run_sweep(base, "k", [4, 8], csv_path=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["param", "value", *CSV_HEADER]
        assert len(lines) == 3
        assert lines[1].startswith("k,4,")
        assert lines[2].startswith("k,8,")

    def test_tunables_sweep_by_name(self):
        spec = ExperimentSpec(n=256, d=1, k=4, seeds=[0, 1])
        results = run_sweep(spec, "alpha", [0.25, 0.5])
        # 0.25 is the default, so only the timings may differ from the plain
        # run; the spec hash ignores constants at their default values.
        plain = [rec.row()[:-2] for rec in run_experiment(spec)]
        assert [rec.row()[:-2] for rec in results[0.25]] == plain
        assert [rec.row()[:-2] for rec in results[0.5]] != plain
        # Values take the declared type: snr_keep_factor is an int slice bound.
        with pytest.raises(ParameterError, match="bad value for snr_keep_factor"):
            run_sweep(spec, "snr_keep_factor", [2.5])

    def test_unsweepable_parameters_are_rejected(self):
        base = ExperimentSpec(n=256, d=1, k=4)
        for param in ("seeds", "signal_model", "constants", "tunables", "no_such_field"):
            with pytest.raises(ParameterError):
                run_sweep(base, param, [1])


class TestSerialization:
    def test_csv_round_trip_is_lossless(self, tmp_path):
        spec = ExperimentSpec(
            n=512, d=1, k=5, signal_model="exact-sparse", seeds=[0, 1]
        )
        records = run_experiment(spec)
        path = tmp_path / "records.csv"
        write_csv(str(path), records)
        assert read_csv(str(path)) == records

    def test_run_experiment_writes_both_files(self, tmp_path):
        spec = ExperimentSpec(n=256, d=1, k=4, seeds=[0])
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        records = run_experiment(
            spec, csv_path=str(csv_path), json_path=str(json_path)
        )
        assert read_csv(str(csv_path)) == records
        payload = json.loads(json_path.read_text())
        assert payload["spec_hash"] == spec_digest(spec)
        assert ExperimentSpec.from_dict(payload["spec"]) == spec
        assert payload["records"][0]["seed"] == 0
        assert payload["records"][0]["samples_total"] == records[0].samples_total

    def test_digest_tracks_configuration(self):
        spec = ExperimentSpec(n=256, d=1, k=4)
        again = ExperimentSpec(n=256, d=1, k=4)
        assert spec_digest(spec) == spec_digest(again)
        assert len(spec_digest(spec)) == 12
        assert spec_digest(replace(spec, k=5)) != spec_digest(spec)
        assert spec_digest(replace(spec, seeds=[1])) != spec_digest(spec)

    def test_digest_names_only_constants_that_change_the_recovery(self):
        spec = ExperimentSpec(n=256, d=1, k=4)
        digest = spec_digest(spec)
        assert spec_digest(replace(spec, constants={})) == digest
        assert spec_digest(replace(spec, constants={"alpha": 0.25})) == digest
        scaled = spec_digest(replace(spec, constants={"bucket_scale": 6.0}))
        assert scaled != digest
        assert spec_digest(replace(spec, constants={"bucket_scale": 6})) == scaled
        both = {"bucket_scale": 6.0, "alpha": 0.25}
        assert spec_digest(replace(spec, constants=both)) == scaled

    def test_spec_dict_round_trip(self):
        spec = ExperimentSpec(
            n=512,
            d=2,
            k=6,
            signal_model="sparse-plus-gaussian-tail",
            snr=4.0,
            epsilon=0.2,
            seeds=[3, 4],
            constants={"bucket_scale": 3.0},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_missing_csv_surfaces_file_context(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(OSError, match="absent.csv"):
            read_csv(str(path))


class TestReproducibility:
    def test_identical_spec_and_seed_give_identical_records(self):
        spec = ExperimentSpec(
            n=1024,
            d=1,
            k=8,
            signal_model="sparse-plus-gaussian-tail",
            snr=10.0,
            seeds=[0, 1],
        )
        first = run_experiment(spec)
        second = run_experiment(spec)
        for a, b in zip(first, second):
            assert a.row()[:-2] == b.row()[:-2]


class TestCli:
    def write_spec(self, tmp_path, **overrides):
        data = {"n": 256, "d": 1, "k": 4, "seeds": [0]}
        data.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_prints_records_and_writes_files(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        code = main(
            [
                "run",
                "--spec",
                spec_path,
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=0" in out
        assert "generate_ms=" in out and "recover_ms=" in out
        assert "summary: runs=1" in out
        assert len(read_csv(str(csv_path))) == 1
        assert "spec_hash" in json.loads(json_path.read_text())

    def test_run_reports_negative_seed(self, tmp_path, capsys):
        code = main(["run", "--spec", self.write_spec(tmp_path, n=64, k=2, seeds=[-1])])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "seeds must be non-negative" in err

    def test_help_lists_only_run_and_sweep(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{run,sweep}" in capsys.readouterr().out

    def test_run_reports_missing_spec_file(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_reports_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["run", "--spec", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_emits_one_block_per_value(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--spec",
                spec_path,
                "--param",
                "k",
                "--values",
                "4,8",
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "--- k = 4 ---" in out
        assert "--- k = 8 ---" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["param", "value"]

    @pytest.mark.parametrize(
        "param,values,blocks",
        [
            ("snr_keep_factor", "2,4", ("2", "4")),
            ("bucket_scale", "4,8", ("4.0", "8.0")),
        ],
    )
    def test_sweep_casts_tunables_by_declared_type(
        self, tmp_path, capsys, param, values, blocks
    ):
        spec_path = self.write_spec(tmp_path)
        code = main(["sweep", "--spec", spec_path, "--param", param, "--values", values])
        out = capsys.readouterr().out
        assert code == 0
        for value in blocks:
            assert f"--- {param} = {value} ---" in out

    def test_sweep_rejects_unsweepable_param(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        code = main(
            ["sweep", "--spec", spec_path, "--param", "seeds", "--values", "1"]
        )
        assert code == 2
        assert "cannot sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"n": 64, "d": 1, "k": 2, "alpah": 0.3}, "unknown spec keys: alpah"),
            ({"n": 64, "d": 1, "k": 2, "alpha": 0.3}, 'go under "constants": alpha'),
            ({"d": 1, "k": 2}, "spec lacks required keys: n"),
            ([64, 1, 2], "a spec must be a JSON object"),
            # Geometry is derived from the spec, not given in it.
            ({"n": 64, "d": 1, "k": 2, "B": 16}, "error: unknown spec keys: B\n"),
        ],
    )
    def test_run_reports_bad_spec_keys(self, tmp_path, capsys, data, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"n": "64", "d": 1, "k": 2}, "n must be of type int, got '64'"),
            ({"n": 64, "d": 1, "k": 2.5}, "k must be of type int, got 2.5"),
            ({"n": 64, "d": 1, "k": 2, "seeds": [0.5]}, "seeds must be of type list[int]"),
            (
                {"n": 64, "d": 1, "k": 2, "constants": {"snr_keep_factor": 2.5}},
                "snr_keep_factor must be of type int, got 2.5",
            ),
        ],
    )
    def test_run_reports_mistyped_spec_values(self, tmp_path, capsys, data, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize(
        "data,message",
        [
            (
                {"n": 64, "d": 1, "k": 2, "constants": {"vote_fraction": 0}},
                "vote_fraction must be finite and > 0, got 0",
            ),
            (
                {"n": 64, "d": 1, "k": 2, "constants": {"vote_fraction": 1.5}},
                "vote_fraction must be <= 1, got 1.5",
            ),
            (
                {"n": 64, "d": 1, "k": 2, "constants": {"ratio_tolerance": -1}},
                "ratio_tolerance must be finite and > 0, got -1",
            ),
            (
                {"n": 16, "d": 2, "k": 2, "constants": {"bucket_scale": -1}},
                "bucket_scale must be finite and > 0, got -1",
            ),
        ],
    )
    def test_run_reports_out_of_range_tunables(self, tmp_path, capsys, data, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"n": 64, "d": 1, "k": 2, "epsilon": float("nan")}, "epsilon must be finite"),
            ({"n": 64, "d": 1, "k": 2, "r_star": float("inf")}, "r_star must be finite"),
            (
                {
                    "n": 64,
                    "d": 1,
                    "k": 2,
                    "signal_model": "sparse-plus-gaussian-tail",
                    "snr": float("inf"),
                },
                "snr must be finite",
            ),
            (
                {
                    "n": 64,
                    "d": 1,
                    "k": 2,
                    "signal_model": "sparse-plus-gaussian-tail",
                    "snr": float("nan"),
                },
                "snr must be finite",
            ),
        ],
    )
    def test_run_reports_non_finite_spec_values(self, tmp_path, capsys, data, message):
        # Python's json reads NaN and Infinity, and NaN passes every range
        # comparison, so these need their own finiteness check.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err


class TestSpecValidation:
    def test_rejects_bad_grid_and_counts(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(n=100, d=1, k=4)
        with pytest.raises(ParameterError):
            ExperimentSpec(n=64, d=0, k=4)
        with pytest.raises(ParameterError):
            ExperimentSpec(n=64, d=1, k=0)

    def test_rejects_empty_seeds_and_unknown_model(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(n=64, d=1, k=4, seeds=[])
        with pytest.raises(ParameterError):
            ExperimentSpec(n=64, d=1, k=4, signal_model="white-noise")

    def test_rejects_weak_snr_for_noisy_models(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(
                n=64, d=1, k=4, signal_model="sparse-plus-gaussian-tail", snr=1.5
            )
        ExperimentSpec(n=64, d=1, k=4, signal_model="exact-sparse", snr=1.5)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(n=64, d=1, k=4, epsilon=0.0)

    def test_rejects_unknown_tunable_override(self):
        spec = ExperimentSpec(n=64, d=1, k=4, constants={"no_such_knob": 1.0})
        with pytest.raises(ParameterError):
            spec.tunables()

    def test_rejects_mistyped_fields(self):
        # An int field takes an int but not a bool; a float field takes both
        # ints and floats.
        for bad in ({"d": True}, {"k": 4.0}, {"seeds": [0, "1"]}, {"r_star": "4"}):
            with pytest.raises(ParameterError, match="must be of type"):
                ExperimentSpec(**{"n": 64, "d": 1, "k": 4, **bad})
        ExperimentSpec(n=64, d=1, k=4, snr=10, epsilon=1, r_star=4)
        with pytest.raises(ParameterError, match="snr_keep_factor must be of type int"):
            Tunables(snr_keep_factor=4.0)
        with pytest.raises(ParameterError, match="alpha must be of type float"):
            Tunables(alpha=True)
        assert Tunables(bucket_scale=6).bucket_scale == 6

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"head_bias": float("nan")}, "head_bias must be finite and > 0"),
            ({"mu_floor_rel": float("inf")}, "mu_floor_rel must be finite and > 0"),
            ({"near_zero": 0.0}, "near_zero must be finite and > 0"),
            ({"snr_keep_factor": 0}, "snr_keep_factor must be >= 1"),
        ],
    )
    def test_rejects_out_of_range_tunables(self, bad, message):
        with pytest.raises(ParameterError, match=message):
            Tunables(**bad)
        Tunables(vote_fraction=1.0, snr_keep_factor=1)
