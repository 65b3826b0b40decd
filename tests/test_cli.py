import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from shnr import DimensionMismatchError, cli, semihilbert, serialize
from shnr.cli import main

REMARK_T = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)


@pytest.fixture
def files(tmp_path):
    def write(name, m):
        path = tmp_path / name
        serialize.save_matrix(path, m)
        return str(path)

    return {
        "i3": write("i3.json", np.eye(3)),
        "remark": write("remark.json", REMARK_T),
        "i2": write("i2.json", np.eye(2)),
        "nil2": write("nil2.json", np.array([[0.0, 1.0], [0.0, 0.0]])),
        "diag10": write("diag10.json", np.diag([1.0, 0.0])),
        "member2": write("member2.json", np.array([[2.0, 0.0], [3.0, 7.0]])),
        "indefinite": write("indefinite.json", np.diag([-1.0, 1.0])),
        "tmp": tmp_path,
    }


class TestCompute:
    def test_omega_a_remark_prints_twelve_digits(self, files, capsys):
        assert main(["compute", files["i3"], files["remark"], "omega_a"]) == 0
        assert capsys.readouterr().out.strip() == "2.00000000000"

    def test_big_omega_remark(self, files, capsys):
        assert main(["compute", files["i3"], files["remark"], "big_omega"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 2 * math.sqrt(2)) <= 1e-6
        assert out.startswith("2.8284271247")

    def test_gamma_and_gen_radius(self, files, capsys):
        assert main(["compute", files["i3"], files["remark"], "gamma_a"]) == 0
        gamma = float(capsys.readouterr().out)
        assert gamma == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert (
            main(
                [
                    "compute", files["i3"], files["remark"], "gen_radius",
                    "--seminorm", "big_omega",
                ]
            )
            == 0
        )
        assert float(capsys.readouterr().out) == pytest.approx(
            2 * math.sqrt(2), abs=1e-6
        )

    def test_alpha_norm(self, files, capsys):
        rc = main(
            ["compute", files["i2"], files["nil2"], "alpha_norm", "--alpha", "0.5"]
        )
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            math.sqrt(0.5), abs=1e-9
        )

    def test_alpha_norm_requires_alpha(self, files, capsys):
        assert main(["compute", files["i2"], files["nil2"], "alpha_norm"]) == 2

    def test_adjoint_prints_matrix(self, files, capsys):
        assert main(["compute", files["diag10"], files["member2"], "adjoint"]) == 0
        out = json.loads(capsys.readouterr().out)
        m = serialize.matrix_from_dict(out)
        np.testing.assert_allclose(m, np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-12)

    def test_non_member_exits_3(self, files, capsys):
        assert main(["compute", files["diag10"], files["nil2"], "adjoint"]) == 3

    def test_indefinite_a_exits_4(self, files):
        assert main(["compute", files["indefinite"], files["nil2"], "norm_a"]) == 4

    def test_parse_error_exits_2(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compute", str(bad), files["nil2"], "norm_a"]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000])
    def test_unreadable_file_exits_2(self, raw, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["compute", str(bad), files["nil2"], "norm_a"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read A from ")

    def test_shape_error_exits_2(self, files):
        assert main(["compute", files["i3"], files["nil2"], "norm_a"]) == 2

    def test_unknown_quantity_usage_error(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["compute", files["i3"], files["remark"], "nonsense"])
        assert exc.value.code == 2


class TestMembership:
    def test_identity_member(self, files, capsys):
        assert main(["membership", files["i2"], files["nil2"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("member")
        assert "residual=0.0" in out

    def test_non_member_residual_one(self, files, capsys):
        assert main(["membership", files["diag10"], files["nil2"]]) == 3
        out = capsys.readouterr().out
        assert out.startswith("non-member")
        assert "residual=1.00000000000" in out

    def test_block_member(self, files, capsys):
        assert main(["membership", files["diag10"], files["member2"]]) == 0

    def test_rtol_env_changes_verdict(self, files, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a_soft.json"
        serialize.save_matrix(a, np.diag([1.0, 0.4]))
        # default tolerance: full rank, everything is a member
        assert main(["membership", str(a), files["nil2"]]) == 0
        capsys.readouterr()
        # huge rtol collapses the small eigenvalue out of the range
        monkeypatch.setenv("SHNR_RTOL", "0.45")
        assert main(["membership", str(a), files["nil2"]]) == 3

    def test_bad_rtol_env(self, files, monkeypatch):
        monkeypatch.setenv("SHNR_RTOL", "banana")
        assert main(["membership", files["i2"], files["nil2"]]) == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "1"])
    def test_rtol_env_outside_open_unit_interval(self, files, monkeypatch, capsys, raw):
        # each of these once let a non-PSD A through and called a
        # non-member T a member
        bad_a = str(files["tmp"] / "upper.json")
        serialize.save_matrix(bad_a, np.array([[1.0, 5.0], [0.0, -3.0]]))
        full = str(files["tmp"] / "full.json")
        serialize.save_matrix(full, np.array([[1.0, 2.0], [3.0, 3.0]]))
        monkeypatch.setenv("SHNR_RTOL", raw)
        for argv in (["compute", bad_a, files["nil2"], "norm_a"],
                     ["membership", files["diag10"], full]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "rtol" in captured.err

    def test_one_residual_per_call(self, files, monkeypatch, capsys):
        cases = []
        for a, t, rc in (("i2", "nil2", 0), ("diag10", "nil2", 3)):
            ctx = semihilbert.build_context(serialize.load_matrix(files[a]))
            t_mat = serialize.load_matrix(files[t])
            verdict = "member" if semihilbert.is_member(ctx, t_mat) else "non-member"
            res = cli._fmt(semihilbert.membership_residual(ctx, t_mat))
            cases.append((a, t, rc, f"{verdict} residual={res}\n"))
        calls = []
        residual = semihilbert._residual

        def counted(ctx, t):
            calls.append(1)
            return residual(ctx, t)

        monkeypatch.setattr(semihilbert, "_residual", counted)
        for a, t, rc, expected in cases:
            calls.clear()
            assert main(["membership", files[a], files[t]]) == rc
            assert len(calls) == 1
            assert capsys.readouterr().out == expected


def _write_raw(path, data_text):
    path.write_text('{"rows": 1, "cols": 1, "data": [' + data_text + "]}")
    return str(path)


class TestMatrixEntries:
    """Matrix-file entries must be JSON numbers; anything else exits 2."""

    BAD = {
        "null": "[null, 0]",
        "string": '["x", 0]',
        "huge_int": "[1" + "0" * 400 + ", 0]",
        "complex": '["(1+2j)", 0]',
        "triple": "[1, 0, 0]",
        "object": '{"re": 1}',
        "nested": "[[1, 0]]",
        "nan": "[NaN, 0]",
        "infinite_string": '["1e400", 0]',
    }

    @pytest.mark.parametrize("entry", sorted(BAD))
    def test_malformed_entry_exits_2(self, entry, tmp_path, capsys):
        bad = _write_raw(tmp_path / "bad.json", self.BAD[entry])
        one = str(tmp_path / "one.json")
        serialize.save_matrix(one, np.eye(1))
        for argv in (
            ["compute", one, bad, "norm_a"],
            ["compute", bad, one, "omega_a"],
            ["membership", one, bad],
            ["membership", bad, one],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    SHAPES = {
        "float_rows": ('{"rows": 2.7, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
                       "rows"),
        "bool_rows": ('{"rows": true, "cols": 1, "data": [[1, 0]]}', "rows"),
        "string_rows": ('{"rows": "2", "cols": 1, "data": [[1, 0], [0, 0]]}', "rows"),
        "float_cols": ('{"rows": 1, "cols": 1.0, "data": [[1, 0]]}', "cols"),
        "null_cols": ('{"rows": 1, "cols": null, "data": [[1, 0]]}', "cols"),
    }

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_dimensions_must_be_json_integers(self, case, tmp_path, capsys):
        text, field = self.SHAPES[case]
        with pytest.raises(DimensionMismatchError, match=f"^{field} must be a JSON integer"):
            serialize.matrix_from_dict(json.loads(text))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        one = str(tmp_path / "one.json")
        serialize.save_matrix(one, np.eye(1))
        for argv in (["compute", one, str(bad), "norm_a"], ["membership", str(bad), one]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{field} must be" in err, err

    def test_python_complex_rejected(self):
        with pytest.raises(DimensionMismatchError):
            serialize.matrix_from_dict({"rows": 1, "cols": 1, "data": [[1j, 0]]})

    def test_error_names_the_entry(self):
        d = {"rows": 1, "cols": 3, "data": [[1, 0], [None, 0], [2, 0]]}
        with pytest.raises(DimensionMismatchError, match="entry 1 "):
            serialize.matrix_from_dict(d)
        d["data"][1] = [1, 0, 0]
        with pytest.raises(DimensionMismatchError, match="entry 1 is not an"):
            serialize.matrix_from_dict(d)

    def test_accepted_entries_keep_their_values(self, tmp_path, capsys):
        # numeric strings and booleans exit 2; integers past 2**53 and
        # signed zeros decode as float() reads them
        one = str(tmp_path / "one.json")
        serialize.save_matrix(one, np.eye(1))
        for entry in ('["1.5", 0]', "[true, 0]", '[0, " -2 "]', "[1, false]"):
            bad = _write_raw(tmp_path / "bad.json", entry)
            assert main(["compute", one, bad, "norm_a"]) == 2, entry
            assert capsys.readouterr().err == "error: entry 0 is not a pair of JSON numbers\n"
        data = [[1.5, 1], [0, -2], [2**53 + 1, -(2**60) - 1], [-0.0, 0]]
        d = {"rows": 2, "cols": 2, "data": data}
        got = serialize.matrix_from_dict(json.loads(json.dumps(d)))
        want = np.array(
            [complex(float(re), float(im)) for re, im in data]
        ).reshape(2, 2)
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(d))
        i2 = str(tmp_path / "i2.json")
        serialize.save_matrix(i2, np.eye(2))
        assert main(["compute", i2, str(path), "norm_a"]) == 0
        norm = float(capsys.readouterr().out)
        assert norm == pytest.approx(np.linalg.norm(want, 2), rel=1e-10)


def _subparsers(parser):
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


class TestParser:
    def test_three_calls_build_one_parser(self, files, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["membership", files["i2"], files["nil2"]]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import shnr.cli as c; print(c._parser.cache_info().currsize)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("command", [None, "compute", "membership", "check"])
    def test_help_matches_a_fresh_parser(self, command, capsys):
        fresh = cli.build_parser()
        if command is not None:
            fresh = _subparsers(fresh)[command]
        main(["membership", "x", "y"])  # a call before, on the same parser
        capsys.readouterr()
        argv = ["--help"] if command is None else [command, "--help"]
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh.format_help()

    def test_bad_choice_between_good_calls(self, files, capsys):
        good = ["compute", files["i3"], files["remark"], "omega_a"]
        assert main(good) == 0
        with pytest.raises(SystemExit) as exc:
            main(["compute", files["i3"], files["remark"], "nonsense"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(good) == 0
        assert capsys.readouterr().out.strip() == "2.00000000000"


class TestCheck:
    def test_only_c26_report(self, files, capsys):
        out = files["tmp"] / "r.json"
        rc = main(
            [
                "check", "--only", "C26", "--dims", "2", "--instances", "3",
                "--seed", "42", "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        c26 = report["checks"][0]
        assert c26["id"] == "C26"
        assert c26["violations"] == 0
        target = 2 * math.sqrt(2)
        assert abs(c26["worst_witness"]["lhs"] - target) <= 1e-4
        assert "C26 ok" in capsys.readouterr().out

    def test_exit_zero_and_determinism(self, files, capsys):
        out1 = files["tmp"] / "r1.json"
        out2 = files["tmp"] / "r2.json"
        args = [
            "check", "--dims", "2", "--ranks", "full,half", "--instances", "4",
            "--seed", "7", "--only", "C17,C18,C19,C27",
        ]
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_witness_replays_bit_for_bit(self, files, capsys):
        out = files["tmp"] / "r.json"
        argv = ["check", "--only", "C04,C17,C21", "--dims", "2,3", "--instances", "9",
                "--seed", "42", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        for chk in report["checks"]:
            recorded = np.float64(chk["worst_witness"]["slack"])
            replayed = np.float64(cli.verify.replay_witness(report, chk["id"]))
            assert replayed.view(np.uint64) == recorded.view(np.uint64), chk["id"]

    def test_bad_flags_exit_2(self, files):
        assert main(["check", "--dims", "x", "--out", "nowhere.json"]) == 2
        assert main(["check", "--dims", "1", "--out", "nowhere.json"]) == 2
        assert main(["check", "--only", "C99", "--out", "nowhere.json"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--ranks", ","],
        ["--only", ","],
        ["--only", ""],
        ["--threads", "0"],
        ["--threads", "-1"],
    ])
    def test_empty_lists_and_no_threads_exit_2(self, files, capsys, flags):
        out = files["tmp"] / "r.json"
        argv = ["check", "--instances", "1", "--out", str(out)] + flags
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, files, capsys, tol):
        # with tol nan or inf no slack could ever count as a violation
        out = files["tmp"] / "r.json"
        argv = ["check", "--only", "C01", "--instances", "9", "--tol", tol,
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: tol_rel")
        assert not out.exists()

    def test_rtol_env_outside_open_unit_interval_exit_2(self, files, monkeypatch, capsys):
        monkeypatch.setenv("SHNR_RTOL", "nan")
        out = files["tmp"] / "r.json"
        assert main(["check", "--only", "C18", "--instances", "2", "--out", str(out)]) == 2
        assert "rtol" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_the_field(self, files, capsys):
        out = files["tmp"] / "r.json"
        assert main(["check", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["check"])
        cfg = cli.verify.InstanceGenConfig()
        assert args.dims == "2,3,4" and args.ranks == "full,n-1,half"
        assert tuple(int(n) for n in args.dims.split(",")) == cfg.dims
        assert tuple(args.ranks.split(",")) == cfg.rank_profiles
        assert (args.instances, args.seed, args.tol) == (
            cfg.instances_per_check, cfg.seed, cfg.tol_rel,
        )
