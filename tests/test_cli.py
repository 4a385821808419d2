import json

import pytest

from lecalc.cli import JobSpec, main, run_job

TOP_KEYS = [
    "schema_version",
    "job",
    "result",
    "error",
    "frame",
    "properness_log",
    "identities",
    "timing",
]


def job(**kw):
    return JobSpec.from_dict(kw)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJobSpec:
    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            JobSpec.from_dict({"mode": "le", "vars": ["x"], "f": "x", "bogus": 1})

    def test_matrix_string_form(self):
        spec = job(mode="le", vars=["x", "y"], f="x*y^2", matrix="1,0;0,1")
        rep, code = run_job(spec)
        assert code == 0
        assert rep["frame"]["matrix"] == [["1", "0"], ["0", "1"]]
        assert rep["frame"]["provenance"] == "user"


class TestSchema:
    def test_top_level_key_order(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x*y^2"))
        assert list(rep.keys()) == TOP_KEYS

    def test_all_integers_are_strings(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x*y^2"))

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert node is None or isinstance(node, (str, bool))

        walk(rep)

    def test_timing_is_null(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x*y^2"))
        assert rep["timing"] is None

    def test_job_echo(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x*y^2", seed=3))
        assert rep["job"] == {
            "mode": "le",
            "vars": ["x", "y"],
            "f": "x*y^2",
            "X": None,
            "seed": "3",
            "budget": "25",
            "order": None,
            "matrix": None,
            "format": "json",
        }


class TestModes:
    def test_le(self):
        rep, code = run_job(job(mode="le", vars=["x", "y"], f="x*y^2"))
        assert code == 0
        assert rep["result"] == {
            "s": "1",
            "lambda": {"0": "2", "1": "1"},
            "D": "1",
            "chi_phi_0": "-1",
        }
        assert rep["frame"]["provenance"] == "identity"

    def test_le_isolated_reports_mu(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x^3 + y^2"))
        assert rep["result"] == {
            "s": "0",
            "lambda": {"0": "2"},
            "D": "2",
            "chi_phi_0": "-2",
            "mu": "2",
        }

    def test_milnor(self):
        rep, code = run_job(job(mode="milnor", vars=["x", "y"], f="x^3 + y^2"))
        assert (code, rep["result"]) == (0, {"mu": "2"})

    def test_milnor_refusal(self):
        rep, code = run_job(job(mode="milnor", vars=["x", "y"], f="x*y^2"))
        assert code == 2
        assert rep["result"] is None
        assert rep["error"] == {
            "kind": "refusal",
            "message": "non-isolated critical locus; use mode=le",
        }
        # the frame and log that led to the refusal are attached
        assert rep["frame"]["provenance"] == "identity"
        assert rep["properness_log"]

    def test_levogel(self):
        rep, code = run_job(job(mode="levogel", vars=["x", "y"], X=["x*y"], f="0"))
        assert code == 0
        assert rep["result"] == {
            "d": "1",
            "s": "1",
            "lambda": {"0": "0", "1": "2"},
            "D": "2",
            "chi_phi_0": "-2",
        }
        assert rep["frame"]["provenance"] == "genericized"

    def test_defect_affine_has_fibre_chi(self):
        rep, _ = run_job(job(mode="defect", vars=["x", "y"], f="x*y^2"))
        assert rep["result"]["chi_fibre"] == "0"
        assert rep["result"]["D"] == "1"

    def test_defect_on_germ_has_no_fibre_chi(self):
        rep, _ = run_job(job(mode="defect", vars=["x", "y"], X=["x*y"], f="0"))
        assert "chi_fibre" not in rep["result"]

    def test_euler_check_refuses_positive_s(self):
        rep, code = run_job(job(mode="euler-check", vars=["x", "y"], X=["x*y"], f="0"))
        assert code == 2
        assert "use defect mode" in rep["error"]["message"]

    def test_euler_check_refusal_names_the_dimension(self):
        rep, code = run_job(job(mode="euler-check", vars=["x", "y"], X=["x*y"], f="0"))
        assert (code, rep["result"]) == (2, None)
        assert rep["error"] == {
            "kind": "refusal",
            "message": "degeneracy locus has dimension 1 at the origin; "
            "use defect mode for the full sum",
        }
        assert rep["frame"]["provenance"] == "genericized"
        assert rep["properness_log"]

    def test_euler_check_generic_form(self):
        rep, code = run_job(
            job(mode="euler-check", vars=["x", "y"], X=["x*y"], f="-3*x - 7*y")
        )
        assert (code, rep["result"]) == (0, {"defect": "0"})

    def test_oracle_cascade_macaulay(self):
        rep, _ = run_job(job(mode="oracle", vars=["x", "y"], f="x^3 + y^2"))
        assert rep["result"] == {
            "method": "macaulay",
            "value": "2",
            "certificate": {"stabilized_at": "3", "jet_dimension": "6"},
        }

    def test_oracle_cascade_falls_through(self):
        rep, _ = run_job(job(mode="oracle", vars=["x", "y"], f="x*y^2"))
        assert rep["result"]["method"] == "thom_sebastiani"
        assert rep["result"]["value"] == "0"

    def test_oracle_no_route(self):
        rep, code = run_job(
            job(mode="oracle", vars=["x", "y", "z"], f="x*y*z + x^2*y^2")
        )
        assert code == 2
        assert rep["error"]["kind"] == "refusal"

    def test_identities_reported(self):
        rep, _ = run_job(job(mode="le", vars=["x", "y"], f="x^3 + y^2"))
        names = [i["name"] for i in rep["identities"]]
        assert names == [
            "chi_phi_0_equals_minus_defect",
            "lambda0_matches_jet_count",
            "fibre_chi_matches_oracle",
        ]
        assert all(i["holds"] for i in rep["identities"])


class TestFrameControls:
    def test_order(self):
        rep, code = run_job(
            job(mode="le", vars=["x", "y", "z"], f="x^2 + y^2*z", order=["z", "y", "x"])
        )
        assert code == 0
        assert rep["frame"]["provenance"] == "reordered"
        assert rep["frame"]["variables"] == ["z", "y", "x"]
        assert rep["result"]["lambda"] == {"0": "2", "1": "1"}

    def test_matrix_round_trip(self):
        auto, _ = run_job(job(mode="le", vars=["x", "y", "z"], f="x^2 + y^2*z"))
        assert auto["frame"]["provenance"] == "genericized"
        matrix = ";".join(",".join(row) for row in auto["frame"]["matrix"])
        redo, code = run_job(
            job(mode="le", vars=["x", "y", "z"], f="x^2 + y^2*z", matrix=matrix)
        )
        assert code == 0
        assert redo["frame"]["provenance"] == "user"
        assert redo["result"]["lambda"] == auto["result"]["lambda"]

    def test_bad_explicit_order_refused(self):
        rep, code = run_job(job(mode="le", vars=["x", "y"], f="x*y^2", order=["y", "x"]))
        assert code == 2
        assert "not generic enough" in rep["error"]["message"]


class TestMain:
    def test_single_job_stdout(self, capsys):
        code, out, err = run(capsys, ["le", "--vars", "x,y", "--f", "x*y^2"])
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["lambda"] == {"0": "2", "1": "1"}
        assert err == ""

    def test_pretty_printed(self, capsys):
        _, out, _ = run(capsys, ["le", "--vars", "x,y", "--f", "x*y^2"])
        assert out.startswith('{\n  "schema_version": "1",\n')

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, ["le", "--vars", "x,y", "--f", "x*y^2", "--format", "text"]
        )
        assert code == 0
        assert "s = 1" in out
        assert "lambda[0] = 2" in out
        assert "lambda[1] = 1" in out
        assert "frame: identity" in out

    def test_missing_f(self, capsys):
        code, out, err = run(capsys, ["le", "--vars", "x,y"])
        assert code == 1
        assert json.loads(out)["error"] == {"kind": "input", "message": "--f is required"}
        assert err.strip() == "error: --f is required"

    def test_parse_error(self, capsys):
        code, out, _ = run(capsys, ["le", "--vars", "x,y", "--f", "2x"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "input"

    def test_germ_flag_rejected_off_germ_modes(self, capsys):
        code, _, err = run(
            capsys, ["milnor", "--vars", "x,y", "--f", "x^2", "--X", "x*y"]
        )
        assert code == 1
        assert "does not accept --X" in err

    def test_order_matrix_conflict(self, capsys):
        code, _, err = run(
            capsys,
            ["le", "--vars", "x,y", "--f", "x", "--order", "y,x", "--matrix", "1,0;0,1"],
        )
        assert code == 1
        assert "not both" in err

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["le", "--vars", "x,y,z", "--f", "x^2 + y^2*z"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestBatch:
    def test_jobs_file(self, tmp_path, capsys):
        lines = [
            {"mode": "milnor", "vars": ["x", "y"], "f": "x^3 + y^2"},
            {"mode": "oracle", "vars": ["x", "y"], "f": "x^2 + y^2"},
            {"mode": "le", "vars": ["x", "y"], "f": "x*y^2"},
        ]
        path = tmp_path / "jobs.ndjson"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        code, out, _ = run(capsys, ["--jobs", str(path)])
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 3
        assert reports[0]["result"] == {"mu": "2"}
        assert reports[2]["result"]["D"] == "1"
        # batch lines are compact
        assert ": " not in out.splitlines()[0]

    def test_batch_isolation_and_worst_exit(self, tmp_path, capsys):
        lines = [
            '{"mode": "milnor", "vars": ["x", "y"], "f": "x^2 + y^2"}',
            "this is not json",
            '{"mode": "milnor", "vars": ["x", "y"], "f": "x*y^2"}',
        ]
        path = tmp_path / "jobs.ndjson"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["--jobs", str(path)])
        assert code == 2
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports[0]["error"] is None
        assert reports[1]["error"]["kind"] == "input"
        assert reports[2]["error"]["kind"] == "refusal"

    def test_jobs_forbids_mode_argument(self, tmp_path, capsys):
        path = tmp_path / "jobs.ndjson"
        path.write_text('{"mode": "milnor", "vars": ["x"], "f": "x^2"}\n')
        code, _, err = run(capsys, ["le", "--jobs", str(path)])
        assert code == 1
        assert "jobs" in err
