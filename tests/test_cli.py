"""Tests for the report layer, the suite registry, and the CLI."""

import json
import subprocess
import sys

import jsonschema
import pytest

from charverify import wreath
from charverify.cli import main, parse_params, run_query
from charverify.partitions import d_core
from charverify.report import (
    CheckReport,
    load_schema,
    render_csv,
    render_json,
    render_text,
    report_document,
)
from charverify.suites import (
    SUITE_NAMES,
    run_suite,
    suite_defaults,
    suite_description,
)

FAST_PARAMS = {
    "lemma22": {"max_ell": 30, "max_q": 30, "max_modulus": 40},
    "lemma71": {"max_ell": 20, "max_r": 6, "max_p0": 10, "max_r_implication": 4},
    "lemma82": {"max_p": 7, "max_r0": 3, "max_ell": 13},
    "thm41": {"max_m": 4, "max_a": 2, "sub_max_m": 4, "sub_max_a": 2},
    "lemma42": {"max_m": 4, "max_a": 2, "sub_max_m": 4, "sub_max_a": 2,
                "max_d": 6},
    "cor74": {"max_n": 6, "max_d": 6},
    "lemma72": {"max_rank": 3, "max_defect": 2, "max_d": 3},
    "prop75": {"max_n": 4, "max_ell": 7, "qs": (2, 3), "rs": (1,)},
    "table1": {},
    "cor55": {"max_p": 5, "max_n": 3},
    "weyl-match": {"max_rank": 2, "max_rank_d": 2},
}


class TestCheckReport:
    def test_status_follows_counterexamples(self):
        good = CheckReport("x", {}, 10, ())
        assert good.passed and good.status == "pass"
        bad = CheckReport("x", {}, 10, ("boom",))
        assert not bad.passed and bad.status == "fail"

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckReport("x", {}, -1, ())
        with pytest.raises(TypeError):
            CheckReport("x", {}, 1, (42,))

    def test_timings_opt_in(self):
        r = CheckReport("x", {"a": 1}, 3, (), wall_time=1.2345)
        assert "wall_time" not in r.to_dict()
        assert r.to_dict(include_timings=True)["wall_time"] == 1.234

    def test_document_and_schema(self):
        doc = report_document(
            [CheckReport("x", {"a": 1}, 3, ()), CheckReport("y", {}, 1, ("c",))]
        )
        assert doc["all_passed"] is False
        jsonschema.validate(doc, load_schema())

    def test_json_deterministic(self):
        reports = [CheckReport("x", {"b": 2, "a": 1}, 3, ())]
        doc1 = render_json(report_document(reports))
        doc2 = render_json(report_document(reports))
        assert doc1 == doc2
        assert doc1.endswith("\n")
        # wall time excluded by default: rebuilding with a different wall
        # time changes nothing.
        other = [CheckReport("x", {"b": 2, "a": 1}, 3, (), wall_time=9.9)]
        assert render_json(report_document(other)) == doc1

    def test_csv_layout(self):
        reports = [CheckReport("x", {}, 3, ("bad",), wall_time=0.5)]
        text = render_csv(reports)
        assert text.splitlines() == [
            "name,status,checks,counterexamples",
            "x,fail,3,1",
        ]
        timed = render_csv(reports, include_timings=True)
        assert timed.splitlines()[1] == "x,fail,3,1,0.5"

    def test_text_rendering_lists_counterexamples(self):
        text = render_text([CheckReport("x", {}, 3, ("first", "second"))])
        assert "FAIL" in text
        assert "first" in text


class TestSuiteRegistry:
    def test_all_names_present(self):
        assert set(SUITE_NAMES) == {
            "lemma22", "lemma71", "lemma82", "thm41", "lemma42", "cor74",
            "lemma72", "prop75", "table1", "cor55", "weyl-match",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("unknown")
        with pytest.raises(ValueError):
            suite_defaults("unknown")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            run_suite("lemma22", {"bogus": 1})

    def test_descriptions_nonempty(self):
        for name in SUITE_NAMES:
            assert suite_description(name)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_reduced_runs_pass(self, name):
        report = run_suite(name, FAST_PARAMS[name])
        assert report.passed, report.counterexamples[:3]
        assert report.checks > 0
        assert report.name == name

    def test_params_recorded(self):
        report = run_suite("cor74", {"max_n": 5})
        assert report.params == {"max_n": 5, "max_d": 12}

    def test_tuple_params_serializable(self):
        report = run_suite("prop75", FAST_PARAMS["prop75"])
        assert report.params["qs"] == [2, 3]
        json.dumps(report.to_dict())


class TestParseParams:
    def test_simple(self):
        assert parse_params("max_n=5,max_d=6") == {"max_n": 5, "max_d": 6}

    def test_tuple_continuation(self):
        assert parse_params("rs=1,2,max_n=4") == {"rs": (1, 2), "max_n": 4}

    def test_empty(self):
        assert parse_params(None) == {}
        assert parse_params("") == {}

    def test_scalars(self):
        assert parse_params("a=none,b=true,c=x") == {
            "a": None,
            "b": True,
            "c": "x",
        }

    def test_bare_token_without_key_rejected(self):
        with pytest.raises(ValueError):
            parse_params("5,max_n=2")


class TestQueries:
    def test_two_core(self):
        assert run_query("2-core", ["(3,1)"])["text"] == "()"
        assert run_query("2-core", ["(2,1)"])["text"] == "(2, 1)"

    def test_d_core(self):
        out = run_query("d-core", ["(4,3,1)", "3"])
        core, weight = d_core((4, 3, 1), 3)
        assert out["core"] == list(core.parts)
        assert out["weight"] == weight
        assert weight >= 1

    def test_symbol_core(self):
        out = run_query("symbol-core", ["({0,2},{1})", "3"])
        assert out["kind"] == "symbol-core"
        assert out["text"].startswith("(")

    def test_conductor(self):
        out = run_query("conductor", ["((2,),(1,),(),())", "4"])
        assert out["conductor"] == 4

    def test_conductor_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a wreath table was built")

        monkeypatch.setattr(wreath, "get_table", refuse)
        monkeypatch.setattr(wreath, "WreathTable", refuse)
        assert run_query("conductor", ["((2,),(1,),(),())", "4"]) == {
            "kind": "conductor",
            "label": "((2,), (1,), (), ())",
            "m": 4,
            "conductor": 4,
            "text": "4",
        }

    def test_generic_degree(self):
        assert run_query("generic-degree", ["(2,1)"])["text"] == "q^2 + q"
        assert run_query("generic-degree", ["(3,)"])["text"] == "1"

    def test_weyl(self):
        out = run_query("weyl", ["B", "3", "0", "2"])
        assert out["consistent"] is True
        assert out["order"] == 48
        assert out["text"].startswith("C_2 wr S_3")

    def test_field(self):
        out = run_query(
            "field", ["eps=-1", "lambda=(2,1)", "ell=7", "q=3", "r=2"]
        )
        assert out["text"] == "trivial over Q_7"
        out = run_query(
            "field", ["eps=1", "lambda=(2,1)", "ell=5", "q=2", "r=1"]
        )
        assert out["text"] == "Q(sqrt(q)) over Q_5"

    def test_malformed(self):
        with pytest.raises(ValueError):
            run_query("2-core", [])
        with pytest.raises(ValueError):
            run_query("field", ["eps=1"])
        with pytest.raises(ValueError):
            run_query("nonsense", ["x"])


class TestMainEntry:
    def test_query_exit_zero(self, capsys):
        assert main(["--query", "2-core", "(3,1)"]) == 0
        assert capsys.readouterr().out.strip() == "()"

    def test_query_error_exit_two(self, capsys):
        assert main(["--query", "2-core"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["(2,)", "(2,1)"], ids=["trivial", "nontrivial"])
    @pytest.mark.parametrize("ell,q", [(9, 2), (2, 3), (4, 3), (3, 3)])
    def test_field_query_outside_the_domain_exits_two(self, capsys, lam, ell, q):
        argv = ["--query", "field", "eps=1", f"lambda={lam}", f"ell={ell}", f"q={q}", "r=1"]
        assert main(argv) == 2
        assert "odd prime" in capsys.readouterr().err

    def test_list_suites(self, capsys):
        assert main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        for name in SUITE_NAMES:
            assert name in out

    def test_unknown_suite_exit_two(self, capsys):
        assert main(["--suite", "nope"]) == 2

    def test_suite_run_writes_reports(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = main(
            [
                "--suite", "cor74", "--params", "max_n=6,max_d=6",
                "--json", str(json_path), "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads(json_path.read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["all_passed"] is True
        assert doc["suites"][0]["params"]["max_n"] == 6
        assert csv_path.read_text().splitlines()[1].startswith("cor74,pass,")

    def test_byte_identical_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "--suite", "table1", "--suite", "lemma72",
                    "--params", "max_rank=3",
                    "--json", str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_data_override(self, tmp_path, capsys):
        from charverify.fields import load_cuspidal_field_data

        data = load_cuspidal_field_data()
        data["rows"][0]["d_values"].append(7)  # 7 not divisible by 3
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code = main(["--suite", "table1", "--data", str(broken)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_recorded(self, tmp_path):
        path = tmp_path / "seeded.json"
        main(["--suite", "table1", "--seed", "42", "--json", str(path)])
        assert json.loads(path.read_text())["seed"] == 42

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "charverify.cli", "--query",
             "generic-degree", "(2,1)"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "q^2 + q"
