import dataclasses
import importlib.util
import inspect
import json
import pathlib

import numpy as np
import pytest

import shnr
from shnr import (
    RankOutOfRangeError,
    build_context,
    catalog,
    is_member,
    replay_witness,
    run_suite,
    serialize,
    verify,
)
from shnr.cli import build_parser
from shnr.verify import InstanceGenConfig, _eq_slack, _ineq_slack
from conftest import make_ctx, refine_step_cap

SMALL_CFG = InstanceGenConfig(
    dims=(2, 3), rank_profiles=("full", "n-1"), instances_per_check=8, seed=42
)


class TestGenerators:
    @pytest.mark.parametrize("n,rank", [(2, 1), (3, 3), (4, 2), (5, 3)])
    def test_random_psd_has_requested_rank(self, n, rank):
        a = verify.random_psd(n, rank, seed=1)
        w = np.linalg.eigvalsh(a)
        assert np.count_nonzero(w > 1e-10 * w[-1]) == rank
        assert np.max(np.abs(a - a.conj().T)) <= 1e-14
        assert w[-1] == pytest.approx(1.0)

    def test_random_psd_rank_bounds(self):
        with pytest.raises(RankOutOfRangeError):
            verify.random_psd(3, 0)
        with pytest.raises(RankOutOfRangeError):
            verify.random_psd(3, 4)

    def test_random_psd_seed_determinism(self):
        np.testing.assert_array_equal(
            verify.random_psd(4, 2, seed=9), verify.random_psd(4, 2, seed=9)
        )

    def test_random_member_block_structure(self):
        ctx = build_context(np.diag([1.0, 0.0]))
        for seed in range(20):
            t = verify.random_member(ctx, seed=seed)
            assert abs(t[0, 1]) <= 1e-12   # range-to-kernel block forced to zero
            assert is_member(ctx, t)

    def test_random_member_sweep(self):
        ctx = make_ctx(4, 2, seed=2)
        rng = np.random.default_rng(3)
        assert all(
            is_member(ctx, verify.random_member(ctx, rng)) for _ in range(1000)
        )

    @pytest.mark.parametrize("name", [
        "random_member", "random_a_selfadjoint", "random_a_positive",
        "random_a_normal", "random_a_unitary",
    ])
    def test_seed_and_generator_give_one_draw(self, name):
        # the one ``seed`` goes through np.random.default_rng, which hands a
        # Generator back unchanged
        ctx = make_ctx(4, 2, seed=5)
        draw = getattr(verify, name)
        for k in (0, 7):
            want = draw(ctx, seed=k)
            got = draw(ctx, seed=np.random.default_rng(k))
            assert (got.view(np.uint64) == want.view(np.uint64)).all()
            assert (draw(ctx, np.random.SeedSequence(k)) == want).all()

    def test_matrix_draws_take_the_same_seed(self):
        for k in (0, 7):
            for draw in (lambda s: verify.random_psd(4, 2, s),
                         lambda s: verify.random_nilpotent(4, s)):
                want = draw(k)
                got = draw(np.random.default_rng(k))
                assert (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_nilpotent_is_square_zero_unit(self):
        rng = np.random.default_rng(4)
        t = verify.random_nilpotent(4, rng)
        assert np.allclose(t @ t, 0.0, atol=1e-14)
        assert shnr.spectral_norm(t) == pytest.approx(1.0)


class TestCatalog:
    def test_size_and_ids(self):
        specs = catalog()
        assert len(specs) == 27
        assert [s.id for s in specs] == [f"C{i:02d}" for i in range(1, 28)]

    def test_flags_satisfiable_by_a_norm(self):
        a_norm_flags = shnr.a_norm_seminorm().flags
        for spec in catalog():
            assert spec.required_flags <= a_norm_flags

    def test_flags_of_assigned_seminorms(self):
        # every seminorm a check runs under declares the flags it needs,
        # except the alpha family, which inherits through its collapse
        for spec in catalog():
            for base in spec.seminorm_ids:
                if base == "a_alpha":
                    continue
                desc = shnr.seminorm_by_name(base)
                assert spec.required_flags <= desc.flags, (spec.id, base)

    def test_statements_and_kinds(self):
        for spec in catalog():
            assert spec.statement
            assert spec.kind in ("inequality", "equality", "conditional")

    def test_pinned_check_is_single_instance(self):
        spec = {s.id: s for s in catalog()}["C26"]
        assert spec.max_instances == 1
        assert spec.seminorm_ids == ("big_omega",)


class TestAngleSweeps:
    @pytest.mark.parametrize("check_id", ["C02", "C07"])
    def test_sweep_makes_stacked_calls(self, check_id):
        # the sweeps of k instances run over 2 theta in lockstep: their
        # grids are one stack of the 64 angles theta and theta + pi/2 of
        # every member, and each refinement step one stack of two angles
        # for every member still refining, at most refine_step_cap steps;
        # before them one stack of the instances' values, N(T) or
        # N(Re_A T), N(Im_A T)
        n, k = 3, 4
        shapes = []
        base = shnr.a_norm_seminorm()

        def counting(ctx, t):
            shapes.append(np.shape(t))
            return base.evaluate(ctx, t)

        desc = dataclasses.replace(base, evaluate=counting)
        spec = {s.id: s for s in catalog()}[check_id]
        instances = []
        for i in range(k):
            ctx = make_ctx(n, 2, seed=50 + i)
            t = verify.random_member(ctx, seed=60 + i, unit_norm=True)
            instances.append((ctx, {"T": t}, desc))
        outcomes = verify._drive(spec, instances)
        assert all(isinstance(o, verify.InstanceOutcome) for o in outcomes)
        sweep = verify._SWEEP_GRID
        r = 2
        values = {"C02": 1, "C07": 2}[check_id] * k
        assert sweep == 32
        assert shapes[:2] == [(values, r, r), (2 * sweep * k, r, r)]
        steps = [s[0] // 2 for s in shapes[2:]]
        assert all(s[1:] == (r, r) and s[0] % 2 == 0 for s in shapes[2:])
        assert steps[0] == k and steps == sorted(steps, reverse=True)
        assert 2 <= len(steps) <= refine_step_cap(sweep)


class TestC27Scale:
    """C27's premise and slacks do not depend on the overall scale of T."""

    @pytest.mark.parametrize("idx", [0, 1, 3], ids=["engineered", "noise1", "noise3"])
    @pytest.mark.parametrize("desc", [shnr.a_norm_seminorm(), shnr.big_omega_seminorm()],
                             ids=lambda d: d.id)
    def test_premise_and_slacks_are_scale_free(self, idx, desc):
        spec = {s.id: s for s in catalog()}["C27"]
        rng = np.random.default_rng(np.random.SeedSequence([42, 27, idx]))
        ctx, mats = spec.generator(3, "full", rng, verify.DEFAULT_RTOL, idx)
        outcomes = [verify._evaluate(spec, ctx, {"T": c * mats["T"]}, desc)
                    for c in (1e-8, 1.0, 1e8)]
        # the engineered instance attains the A-norm's lower bound; these noise ones none
        assert [o.premise_held for o in outcomes] == [idx == 0 and desc.id == "a_norm"] * 3
        slacks = [[verify._slack(spec.kind, l, r) for l, r in o.pairs] for o in outcomes]
        for other in (slacks[0], slacks[2]):
            np.testing.assert_allclose(other, slacks[1], rtol=0.0, atol=1e-12)


class TestSlack:
    def test_inequality_slack(self):
        assert _ineq_slack(1.0, 2.0) == pytest.approx(0.5)
        assert _ineq_slack(0.0, 0.0) == 0.0
        assert _ineq_slack(2.0, 1.0) < -0.5

    def test_equality_slack(self):
        assert _eq_slack(1.0, 1.0) == 0.0
        assert _eq_slack(0.0, 0.0) == 0.0
        assert _eq_slack(1.0, 1.1) == pytest.approx(-0.1 / 1.1)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL_CFG)


class TestRunSuite:

    def test_zero_violations_and_complete(self, small_report):
        assert small_report.violations_total == 0
        assert small_report.incomplete_total == 0
        for chk in small_report.checks:
            assert chk.min_slack is None or chk.min_slack >= -SMALL_CFG.tol_rel

    def test_all_checks_present(self, small_report):
        assert [c.id for c in small_report.checks] == [
            f"C{i:02d}" for i in range(1, 28)
        ]

    def test_conditional_premises_reported(self, small_report):
        c27 = next(c for c in small_report.checks if c.id == "C27")
        assert c27.premise_held is not None and c27.premise_held > 0
        for chk in small_report.checks:
            if chk.kind != "conditional":
                assert chk.premise_held is None

    def test_sharpness_hit_for_sandwich(self, small_report):
        # nilpotent instances make the lower bound of C17 exact
        c17 = next(c for c in small_report.checks if c.id == "C17")
        assert c17.min_slack == pytest.approx(0.0, abs=1e-8)

    def test_determinism_same_config(self, small_report):
        again = run_suite(SMALL_CFG)
        assert serialize.dump_report(again.to_dict()) == serialize.dump_report(
            small_report.to_dict()
        )

    def test_thread_count_does_not_change_bytes(self, small_report):
        threaded = run_suite(SMALL_CFG, threads=4)
        assert serialize.dump_report(threaded.to_dict()) == serialize.dump_report(
            small_report.to_dict()
        )

    def test_report_echoes_package_version_and_omega_defaults(self, small_report):
        report_dict = small_report.to_dict()
        assert report_dict["version"] == shnr.__version__
        assert report_dict["config"]["omega_t_grid"] == shnr.seminorms.OMEGA_T_GRID
        assert report_dict["config"]["omega_psi_grid"] == shnr.seminorms.OMEGA_PSI_GRID

    def test_witness_replay(self, small_report):
        report_dict = json.loads(serialize.dump_report(small_report.to_dict()))
        replayed = 0
        for chk in report_dict["checks"]:
            wit = chk["worst_witness"]
            if wit is None:
                continue
            slack = replay_witness(report_dict, chk["id"])
            assert slack == pytest.approx(wit["slack"], abs=1e-12), chk["id"]
            replayed += 1
        assert replayed >= 20

    def test_every_witness_replays_bit_for_bit(self, small_report):
        report_dict = json.loads(serialize.dump_report(small_report.to_dict()))
        for chk in report_dict["checks"]:
            if chk["worst_witness"] is None:
                continue
            recorded = np.float64(chk["worst_witness"]["slack"])
            replayed = np.float64(replay_witness(report_dict, chk["id"]))
            assert replayed.view(np.uint64) == recorded.view(np.uint64), chk["id"]

    @pytest.mark.parametrize("key", ["theta_grid", "omega_t_grid", "omega_psi_grid"])
    def test_replay_refuses_other_grids(self, small_report, key):
        report_dict = json.loads(serialize.dump_report(small_report.to_dict()))
        report_dict["config"][key] += 1
        with pytest.raises(ValueError, match=key):
            replay_witness(report_dict, "C01")

    @pytest.mark.parametrize("check_id", ["C01", "C12"])
    def test_replay_names_an_operand_of_the_wrong_size(self, small_report, check_id):
        # the driver checks the shape of every drawn operand before it
        # stacks them, so a T larger than A is named as such, also beside
        # an S of the right size
        report_dict = json.loads(serialize.dump_report(small_report.to_dict()))
        wit = next(c for c in report_dict["checks"] if c["id"] == check_id)["worst_witness"]
        wit["matrices"]["T"] = serialize.matrix_to_dict(np.eye(wit["dim"] + 1))
        with pytest.raises(shnr.DimensionMismatchError):
            replay_witness(report_dict, check_id)

    def test_replay_names_an_unknown_check(self, small_report):
        report_dict = json.loads(serialize.dump_report(small_report.to_dict()))
        with pytest.raises(ValueError, match="C99"):
            replay_witness(report_dict, "C99")

    def test_replay_names_a_check_missing_from_the_report(self):
        report_dict = run_suite(SMALL_CFG, only=["C18"]).to_dict()
        with pytest.raises(ValueError, match="C01"):
            replay_witness(report_dict, "C01")

    def test_only_filter(self):
        rep = run_suite(SMALL_CFG, only=["C18", "C19"])
        assert [c.id for c in rep.checks] == ["C18", "C19"]
        with pytest.raises(KeyError):
            run_suite(SMALL_CFG, only=["C99"])
        # a list that names no check is an error, not "every check"
        with pytest.raises(ValueError, match="only"):
            run_suite(SMALL_CFG, only=[])
        # a bare string is not read as its characters
        with pytest.raises(ValueError, match="only"):
            run_suite(SMALL_CFG, only="C01")

    @pytest.mark.parametrize("threads", [0, -2, 2.5, True])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_suite(SMALL_CFG, only=["C18"], threads=threads)

    def test_alphas_that_name_no_weight_rejected(self):
        # checked up front, as ``only`` is, before any instance is drawn
        with pytest.raises(ValueError, match="alphas"):
            run_suite(SMALL_CFG, only=["C21"], alphas=())

    def test_pinned_remark_values(self):
        rep = run_suite(SMALL_CFG, only=["C26"])
        c26 = rep.checks[0]
        assert c26.instances_run == 1
        assert c26.violations == 0
        # worst pair still within 1e-4 of 2 sqrt(2)
        assert abs(c26.min_slack) <= 1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InstanceGenConfig(dims=(1, 2))
        with pytest.raises(ValueError):
            InstanceGenConfig(instances_per_check=0)
        with pytest.raises(ValueError):
            InstanceGenConfig(rank_profiles=("thirds",))
        # the runner draws instance i from cell i % len(grid)
        with pytest.raises(ValueError, match="rank_profiles"):
            InstanceGenConfig(rank_profiles=())

    @pytest.mark.parametrize("field,value", [
        ("seed", -1),
        ("seed", True),
        ("seed", 4.0),
        ("dims", (2.5,)),
        ("dims", (True, 3)),
        ("dims", ("3",)),
        ("instances_per_check", 1.5),
        ("instances_per_check", True),
        ("rtol", 2.0),
        ("rtol", 0.0),
        ("rtol", float("nan")),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            InstanceGenConfig(**{field: value})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tol_rel_must_be_finite_and_nonnegative(self, tol):
        # a nan tolerance made every slack pass: s < -nan is never true
        with pytest.raises(ValueError, match="tol_rel"):
            InstanceGenConfig(tol_rel=tol)
        assert InstanceGenConfig(tol_rel=0.0).tol_rel == 0.0


class TestNumpyIntegerConfig:
    @pytest.mark.parametrize("field,value", [
        ("seed", np.int64(3)),
        ("dims", (np.int64(2),)),
        ("instances_per_check", np.int32(1)),
    ])
    def test_report_round_trips_through_json(self, field, value):
        plain = {"seed": 3, "dims": (2,), "instances_per_check": 1}
        want = serialize.dump_report(run_suite(InstanceGenConfig(**plain), only=["C18"]).to_dict())
        cfg = InstanceGenConfig(**{**plain, field: value})
        got = serialize.dump_report(run_suite(cfg, only=["C18"]).to_dict())
        assert got == want
        assert json.loads(got)["config"][field] == json.loads(want)["config"][field]


def _non_member(ctx):
    """Maps a kernel vector of A onto a range vector, so it has no A-adjoint."""
    return np.outer(ctx.eigenvectors[:, -1], ctx.eigenvectors[:, 0].conj())


class TestFailureIsolation:
    """Instances are evaluated together and their requests answered in
    shared stacked calls; one failing instance must still be the only one
    marked incomplete, and the others' obligations must not change."""

    BAD = 5                      # an "n-1" cell: A has a kernel
    #: each check's seminorm, and the solver its failure is injected into:
    #: the level set (A-norm radii) or the seminorm's evaluate (values,
    #: sweeps and the angle engine's radii); C27's even instances (identity
    #: A, square-zero T) meet its premise and make a second request round
    CASES = {
        "C01": (shnr.a_norm_seminorm(), "evaluate"),
        "C04": (shnr.a_norm_seminorm(), "level set"),
        "C07": (shnr.a_norm_seminorm(), "evaluate"),
        "C12": (shnr.a_norm_seminorm(), "level set"),
        "C14": (shnr.a_norm_seminorm(), "level set"),
        "C20": (shnr.a_alpha_seminorm(0.5), "evaluate"),
        "C21": (shnr.a_alpha_seminorm(0.5), "level set"),
        "C22": (shnr.big_omega_seminorm(), "evaluate"),
        "C24": (shnr.big_omega_seminorm(), "evaluate"),
        "C27": (shnr.a_norm_seminorm(), "evaluate"),
    }
    #: the drawn operand made bad, where it is not T: C04's A-unitary U
    #: enters its operands only through U# T U
    OPERAND = {"C04": "U"}

    @staticmethod
    def _instances(spec, count, desc):
        out = []
        for idx in range(count):
            rng = np.random.default_rng(np.random.SeedSequence([42, int(spec.id[1:]), idx]))
            profile = ("full", "n-1")[idx % 2]
            ctx, mats = spec.generator(3, profile, rng, verify.DEFAULT_RTOL, idx)
            out.append((ctx, mats, desc))
        return out

    @pytest.mark.parametrize("failure", ["non-member", "solver"])
    @pytest.mark.parametrize("check_id", list(CASES))
    def test_only_the_failing_instance_fails(self, monkeypatch, check_id, failure):
        spec = {s.id: s for s in catalog()}[check_id]
        desc, solver = self.CASES[check_id]
        if failure == "solver" and solver == "evaluate":
            exact_eval = desc.evaluate

            def failing_eval(ctx, t):
                if np.abs(t).max() > 100.0:
                    raise np.linalg.LinAlgError("injected")
                return exact_eval(ctx, t)

            desc = dataclasses.replace(desc, evaluate=failing_eval)
        instances = self._instances(spec, 12, desc)
        want = verify._drive(spec, instances)
        ctx, mats, _ = instances[self.BAD]
        key = self.OPERAND.get(check_id, "T")
        if failure == "non-member":
            bad_t = mats[key] + _non_member(ctx)
            error = shnr.NotMemberError
        else:
            # a member, but the patched solver fails on any stack holding it
            bad_t = 1e3 * mats[key]
            error = np.linalg.LinAlgError
            if solver == "level set":
                exact = shnr.radius._level_set_radius

                def failing(m):
                    if np.abs(m).max() > 100.0:
                        raise np.linalg.LinAlgError("injected")
                    return exact(m)

                monkeypatch.setattr(shnr.radius, "_level_set_radius", failing)
        instances[self.BAD] = (ctx, {**mats, key: bad_t}, desc)
        got = verify._drive(spec, instances)
        assert isinstance(got[self.BAD], error)
        for i, (g, w) in enumerate(zip(got, want)):
            if i != self.BAD:
                assert g.pairs == w.pairs, i

    @pytest.mark.parametrize("threads", [1, 3])
    def test_suite_marks_one_instance_incomplete(self, monkeypatch, threads):
        cfg = InstanceGenConfig(dims=(3,), rank_profiles=("full", "n-1"),
                                instances_per_check=12, seed=42)
        plain = catalog()
        spec = next(s for s in plain if s.id == "C14")

        def generator(n, profile, rng, rtol, idx):
            ctx, mats = spec.generator(n, profile, rng, rtol, idx)
            if idx == self.BAD:
                mats = {**mats, "S": mats["S"] + _non_member(ctx)}
            return ctx, mats

        monkeypatch.setattr(
            verify, "catalog",
            lambda: [dataclasses.replace(s, generator=generator) if s is spec else s
                     for s in plain],
        )
        (chk,) = run_suite(cfg, only=["C14"], threads=threads).checks
        assert (chk.instances_run, chk.incomplete) == (11, 1)


class TestOneMembershipCheck:
    """The driver validates the operands each instance draws with one
    stacked membership check; every operand built from them is a member by
    construction and is not checked again."""

    #: the operands each check draws: T, plus C04's U and C12's S
    DRAWN = {"C01": 1, "C04": 2, "C12": 2, "C20": 1, "C27": 1}

    @pytest.mark.parametrize("check_id", list(DRAWN))
    def test_one_verdict_per_instance(self, monkeypatch, check_id):
        verdicts = []
        exact = shnr.semihilbert._member_verdict

        def counted(ctx, t):
            verdicts.append(t.shape)
            return exact(ctx, t)

        monkeypatch.setattr(shnr.semihilbert, "_member_verdict", counted)
        (chk,) = run_suite(InstanceGenConfig(instances_per_check=9), only=[check_id]).checks
        assert (chk.instances_run, chk.incomplete) == (9, 0)
        # one stacked verdict an instance, on what it drew
        assert [shape[0] for shape in verdicts] == [self.DRAWN[check_id]] * 9


def _log_uniform_psd(lo):
    """A stand-in for ``verify.random_psd`` whose kept eigenvalues are
    log-uniform in [lo, 1], so that cond(A) reaches about 1 / lo."""

    def random_psd(n, rank, seed=None):
        rng = np.random.default_rng(seed)
        q = verify._random_unitary(n, rng)[:, :rank]
        vals = np.exp(rng.uniform(np.log(lo), 0.0, size=rank))
        vals /= vals.max()
        return shnr.linalg.herm((q * vals) @ q.conj().T)

    return random_psd


class TestConditionedA:
    """The catalog on ill-conditioned A.  The range blocks of its operands
    carry D^{-1/2} amplification, but the A-real parts of the radii are
    formed from the blocks, exactly Hermitian, so the radii under alpha and
    Omega_A never need the general solvers and their identities hold to
    roundoff.  (The values of C10 and C25 on n x n operators still may.)"""

    CHECKS = ["C04", "C10", "C20", "C21", "C23", "C24", "C25"]
    RADII_ONLY = ["C04", "C21", "C24"]

    @pytest.mark.parametrize("lo", [1e-6, 1e-9])
    def test_radii_take_the_closed_form(self, lo, monkeypatch):
        monkeypatch.setattr(verify, "random_psd", _log_uniform_psd(lo))
        calls = []
        for name in ("_omega_solve", "_alpha_ascent"):
            solver = getattr(shnr.seminorms, name)

            def counted(tts, *args, _solver=solver, _name=name):
                calls.append((_name, len(tts)))
                return _solver(tts, *args)

            monkeypatch.setattr(shnr.seminorms, name, counted)
        cfg = InstanceGenConfig(instances_per_check=45, seed=42)
        by_id = {}
        for cid in self.CHECKS:
            del calls[:]
            (chk,) = run_suite(cfg, only=[cid]).checks
            by_id[cid] = chk
            if cid in self.RADII_ONLY:
                assert calls == [], cid
        assert [(c.violations, c.incomplete) for c in by_id.values()] == [(0, 0)] * 7
        for cid in ("C21", "C24"):
            assert by_id[cid].min_slack > -1e-14, (cid, by_id[cid].min_slack)


class TestMatrixRoundTrip:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        d = serialize.matrix_to_dict(m)
        np.testing.assert_array_equal(serialize.matrix_from_dict(d), m)

    def test_json_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4)) / 3 + 1j * rng.standard_normal((4, 4)) / 7
        path = tmp_path / "m.json"
        serialize.save_matrix(path, m)
        np.testing.assert_array_equal(serialize.load_matrix(path), m)

    # signed zeros, subnormals, the float range's edge, shortest-repr floats
    EDGES = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308,
             0.1, 1 / 3, -2 / 3, 1.7976931348623157e308]

    def _edge_matrix(self):
        re, im = np.meshgrid(self.EDGES, self.EDGES)
        m = np.empty(re.shape, dtype=np.complex128)
        m.real, m.imag = re, im   # re + 1j * im would lose a -0.0 real part
        return m

    def test_dict_round_trip_bit_exact(self):
        m = self._edge_matrix()
        got = serialize.matrix_from_dict(serialize.matrix_to_dict(m))
        assert got.shape == m.shape
        assert (got.view(np.uint64) == m.view(np.uint64)).all()

    def test_file_round_trip_bit_exact(self, tmp_path):
        m = self._edge_matrix()
        path = tmp_path / "edges.json"
        serialize.save_matrix(path, m)
        got = serialize.load_matrix(path)
        assert (got.view(np.uint64) == m.view(np.uint64)).all()

    def test_decode_matches_float_of_each_part(self):
        d = serialize.matrix_to_dict(self._edge_matrix())
        want = np.array([complex(float(re), float(im)) for re, im in d["data"]])
        got = serialize.matrix_from_dict(json.loads(json.dumps(d))).ravel()
        assert (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_malformed_rejected(self):
        with pytest.raises(shnr.DimensionMismatchError):
            serialize.matrix_from_dict({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(shnr.DimensionMismatchError):
            serialize.matrix_from_dict({"rows": 1, "cols": 1, "data": [[1]]})


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path: the benchmark directory is
    not a package, and its ``oracles`` module would shadow the tests' own."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    """What the benchmark harness reads of the library is still there."""

    def test_tracer_counts_generation_and_evaluation(self):
        tr = _load_tracer().Tracer()
        cfg = InstanceGenConfig(instances_per_check=2)
        tr.install()
        try:
            report = run_suite(cfg, only=["C01", "C19", "C24"])
        finally:
            tr.uninstall()
        assert report.incomplete_total == 0
        calls = tr.summary()[0]
        assert calls["verify.evaluate"] == 6
        # per instance one random_psd, plus one random_member for C01 and
        # C24: the generators look the random_* functions up at call time
        assert calls["verify.generate"] == 10
        assert verify.catalog()[0].evaluator is verify._eval_c01   # uninstalled

    def test_tracer_sees_stacked_radii(self):
        # the runner answers the requests of a chunk in stacked calls outside
        # the evaluators; radii, values and sweeps under alpha or Omega_A
        # still go through the traced seminorm evaluate, inside each check's
        # span, and the A-norm-only checks make no such call
        tr = _load_tracer().Tracer()
        # one (dim, rank) cell, so 3 instances reach each check's first three
        # seminorms
        cfg = InstanceGenConfig(dims=(3,), rank_profiles=("n-1",), instances_per_check=3)
        listing = ["C04", "C20", "C21", "C22", "C23", "C24"]
        a_norm_only = ["C01", "C02", "C07", "C14"]
        ids = listing + a_norm_only
        tr.install()
        try:
            reports = [tr.wrap(run_suite, f"verify.check.{cid}")(cfg, only=[cid]) for cid in ids]
        finally:
            tr.uninstall()
        assert [r.incomplete_total for r in reports] == [0] * len(ids)
        assert tr.summary()[0]["verify.evaluate"] == 3 * len(ids)
        watched = ("seminorms.big_omega", "seminorms.alpha")
        seen = dict(tr.calls_within("verify.check.", watched))
        for cid, report in zip(ids, reports):
            (chk,) = report.checks
            for sem, layer in (("big_omega", watched[0]), ("a_alpha", watched[1])):
                listed = any(s.startswith(sem) for s in chk.seminorms)
                calls = seen[f"verify.check.{cid}"][layer]
                assert (calls > 0) == listed, (cid, layer, calls)
        assert all(not any(seen[f"verify.check.{c}"].values()) for c in a_norm_only)

    def test_tracer_sees_a_norm_values_asked_for_by_name(self):
        # C18 asks for its A-norm values through ``verify._a_norm()``, which
        # builds the descriptor at each request, so its evaluate is the
        # traced ``semihilbert.a_operator_norm``
        tr = _load_tracer().Tracer()
        tr.install()
        try:
            report = run_suite(InstanceGenConfig(instances_per_check=9), only=["C18"])
        finally:
            tr.uninstall()
        assert report.incomplete_total == 0
        assert tr.summary()[0]["semihilbert.a_operator_norm"] > 0

    def test_catalog_cells_inputs(self):
        # the (dim, rank profile, seminorm) cell count of perfbench's
        # workloads.cells, from the same reads
        defaults = build_parser().parse_args(["check"])
        grid = len(defaults.dims.split(",")) * len(defaults.ranks.split(","))
        alphas = inspect.signature(run_suite).parameters["alphas"].default
        cells = {
            spec.id: min(
                grid * sum(len(alphas) if s == "a_alpha" else 1 for s in spec.seminorm_ids),
                spec.max_instances or 10**9,
            )
            for spec in catalog()
        }
        assert (cells["C01"], cells["C03"], cells["C21"], cells["C26"]) == (9, 18, 45, 1)
