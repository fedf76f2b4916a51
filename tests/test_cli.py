import json
from fractions import Fraction

import pytest

from hexacent.cli import dispatch

TIGHT = {"vertices": [["0", "2"], ["-2", "0"], ["-1", "-1"],
                      ["1", "-1"], ["2", "0"]]}
NONCONVEX = {"vertices": [["0", "0"], ["2", "0"], ["1", "1/2"], ["0", "2"]]}
FLOAT_BOX = {"vertices": [["0.0", "0.0"], ["4.0", "0.0"],
                          ["4.0", "3.0"], ["0.0", "3.0"]]}


@pytest.fixture
def tight_path(tmp_path):
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(TIGHT))
    return str(p)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCheck:
    def test_tight_pentagon_exact(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "check", tight_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "contained"
        assert doc["margin"] == "0"
        assert doc["gauge"] == "4/21"
        assert doc["exact"] == "true"
        assert doc["support_parameter"] == "2"

    def test_text_format(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "--format", "text", "check",
                               tight_path)
        assert code == 0
        assert "contained" in out
        assert "4/21" in out

    def test_float_mode(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "--mode", "float", "check",
                               tight_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["exact"] == "false"
        assert abs(float(doc["margin"])) < 1e-9

    def test_tiny_ratio_violates(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "check", tight_path,
                               "--ratio", "1/10")
        doc = json.loads(out)
        assert code == 1
        assert doc["verdict"] == "violated"
        assert doc["ratio"] == "1/10"

    def test_nonconvex_exits_2_and_names_the_triple(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(NONCONVEX))
        code, _, err = run_cli(capsys, "check", str(p))
        assert code == 2
        assert "(2, 0), (1, 1/2), (0, 2)" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(p))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/poly.json")
        assert code == 2

    def test_body_far_from_origin(self, capsys, tmp_path):
        quad = [(0, 0), (3, 0), (4, 2), (1, 3)]
        gauges = []
        for shift in (0, 10 ** 9):
            p = tmp_path / ("quad%d.json" % shift)
            p.write_text(json.dumps({"vertices": [
                [str(x + shift), str(y + shift)] for x, y in quad]}))
            code, out, _ = run_cli(capsys, "check", str(p))
            doc = json.loads(out)
            assert code == 0
            assert doc["verdict"] == "contained"
            gauges.append(doc["gauge"])
        assert gauges[0] == "4357/81900"
        assert abs(float(gauges[1]) - 4357 / 81900) < 1e-6

    def test_float_body_far_from_origin(self, capsys, tmp_path):
        quad = [(0, 0), (3, 0), (4, 2), (1, 3)]
        for shift in (0, 10 ** 9):
            p = tmp_path / ("quad%d.json" % shift)
            p.write_text(json.dumps({"vertices": [
                [str(x + shift), str(y + shift)] for x, y in quad]}))
            code, out, _ = run_cli(capsys, "--mode", "float", "check", str(p))
            doc = json.loads(out)
            assert code == 0
            assert doc["verdict"] == "contained"
            assert abs(float(doc["gauge"]) - 4357 / 81900) < 1e-6

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_pentagram_exits_2(self, capsys, tmp_path, mode):
        # a convex pentagon taken in the order 0, 2, 4, 1, 3: every turn
        # is a left turn, but the boundary winds twice
        pentagon = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]
        p = tmp_path / "star.json"
        p.write_text(json.dumps({"vertices": [
            [str(x), str(y)] for x, y in (pentagon[i] for i in (0, 2, 4, 1, 3))
        ]}))
        code, out, err = run_cli(capsys, "--mode", mode, "check", str(p))
        assert (code, out) == (2, "")
        assert "error: " in err and "self-intersecting" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_coordinate_beyond_float_range_exits_2(self, capsys, tmp_path,
                                                   mode):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"vertices": [
            ["0", "0"], ["1", "0"], ["0", "1" + "0" * 400]]}))
        code, out, err = run_cli(capsys, "--mode", mode, "check", str(p))
        assert (code, out) == (2, "")
        assert "error: " in err and "float range" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("leg", ["1" + "0" * 160, "1/1" + "0" * 200],
                             ids=["legs-1e160", "legs-1e-200"])
    def test_right_triangle_at_any_scale(self, capsys, tmp_path, mode, leg):
        # 10**160 squared overflows a float, 10**-200 squared underflows
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"vertices": [
            ["0", "0"], [leg, "0"], ["0", leg]]}))
        code, out, err = run_cli(capsys, "--mode", mode, "check", str(p))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"] == "contained"
        assert float(doc["centroid"][0]) == float(Fraction(leg) / 3)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_offsets_beyond_float_range_exit_2(self, capsys, tmp_path, mode):
        # each coordinate is a float, but their differences are not
        p = tmp_path / "wide.json"
        big = 10 ** 308
        p.write_text(json.dumps({"vertices": [
            [str(x), str(y)] for x, y in ((-big, -big), (big, -big),
                                          (0, big))]}))
        code, out, err = run_cli(capsys, "--mode", mode, "check", str(p))
        assert (code, out) == (2, "")
        assert "error: " in err and "float range" in err

    def test_float_coords_rejected_in_exact_mode(self, capsys, tmp_path):
        p = tmp_path / "float_box.json"
        p.write_text(json.dumps(FLOAT_BOX))
        code, _, err = run_cli(capsys, "check", str(p))
        assert code == 2
        assert "exact" in err


class TestInscribe:
    def test_tight_pentagon_snaps_exact(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "inscribe", tight_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["hexagon"]["center"] == ["0", "0"]
        assert doc["hexagon"]["u"] == ["1", "1"]
        assert doc["hexagon"]["v"] == ["-1", "1"]

    def test_float_body(self, capsys, tmp_path):
        p = tmp_path / "box.json"
        p.write_text(json.dumps(FLOAT_BOX))
        code, out, _ = run_cli(capsys, "--mode", "float", "inscribe", str(p))
        doc = json.loads(out)
        assert code == 0
        assert float(doc["fit"]["residual"]) <= 1e-9


class TestSymmetrize:
    def test_axis_output_is_symmetric_polygon(self, capsys, tight_path):
        code, out, _ = run_cli(capsys, "symmetrize", tight_path,
                               "--axis", "1,0,0")
        doc = json.loads(out)
        assert code == 0
        verts = [(v[0], v[1]) for v in doc["vertices"]]
        mirrored = sorted(("-" + x if not x.startswith("-") else x[1:], y)
                          if x != "0" else (x, y) for x, y in verts)
        assert sorted(verts) == mirrored

    def test_bad_axis_exits_2(self, capsys, tight_path):
        code, _, err = run_cli(capsys, "symmetrize", tight_path,
                               "--axis", "0,0,5")
        assert code == 2


class TestVerifyProof:
    def test_single_claim(self, capsys):
        code, out, _ = run_cli(capsys, "verify-proof", "--claim", "P4a")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["claim"] == "P4a"
        assert doc["entries"][0]["status"] == "Verified"

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify-proof", "--claim", "P99")
        assert code == 2
        assert "P99" in err

    def test_starved_budget_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "verify-proof", "--claim", "P5a",
                               "--budget", "1")
        doc = json.loads(out)
        assert code == 3
        assert doc["entries"][0]["status"] == "Inconclusive"

    def test_text_format_one_line_per_claim(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "verify-proof",
                               "--claim", "TIGHT")
        assert code == 0
        assert "TIGHT" in out and "Verified" in out


class TestStress:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "stress", "--trials", "40",
                               "--seed", "11", "--generator", "mixed")
        doc = json.loads(out)
        assert code == 0
        assert doc["violations"] == "0"
        assert doc["trials"] == "40"

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HEXACENT_SEED", "777")
        _, out_a, _ = run_cli(capsys, "stress", "--trials", "25",
                              "--seed", "1", "--generator", "a")
        _, out_b, _ = run_cli(capsys, "stress", "--trials", "25",
                              "--seed", "2", "--generator", "a")
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        assert doc_a["seed"] == doc_b["seed"] == "777"
        assert doc_a["min_margin"] == doc_b["min_margin"]

    def test_deterministic_for_fixed_seed(self, capsys):
        _, out_a, _ = run_cli(capsys, "stress", "--trials", "30",
                              "--seed", "5", "--generator", "b")
        _, out_b, _ = run_cli(capsys, "stress", "--trials", "30",
                              "--seed", "5", "--generator", "b")
        assert out_a == out_b


class TestRender:
    def test_renders_byte_identical_with_marker(self, capsys, tight_path,
                                                tmp_path):
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        for out in (out_a, out_b):
            code, _, _ = run_cli(capsys, "render", tight_path, "--hexagon",
                                 "--star", "--centroid", "-o", str(out))
            assert code == 0
        svg_a = out_a.read_bytes()
        assert svg_a == out_b.read_bytes()
        text = svg_a.decode()
        assert text.count("centroid-marker") == 1
        assert 'data-world="0,4/21"' in text

    def test_body_only(self, capsys, tight_path, tmp_path):
        out = tmp_path / "plain.svg"
        code, _, _ = run_cli(capsys, "render", tight_path, "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count("<path") == 1


class TestParser:
    def test_no_args_exits_2(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_bad_ratio_exits_2(self, capsys, tight_path):
        code, _, _ = run_cli(capsys, "check", tight_path,
                             "--ratio", "banana")
        assert code == 2
