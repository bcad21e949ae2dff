import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symdisk
from symdisk.cli import main
from symdisk.pick import AdmissibilityReport

DATA = Path(__file__).resolve().parent.parent / "data"
# stdout and CSV of `trace --grid-n 64` on the data/ royal and sheet data,
# recorded before the stacked branch traces, the cached parser and the
# one-format-string CSV writer; stdout and --out report of `pick` on the same
# data, recorded before the Gram matrices were built from node arrays
GOLDEN = Path(__file__).resolve().parent / "golden"
# eight sheet nodes, two of them 0.02 apart (Gram condition number about 2e7)
CLOSE_SHEET_P = (-0.4 + 0.6j, -0.1 + 0.05j, 0.72 - 0.16j, -0.56 - 0.23j,
                 -0.05 + 0.82j, 0.01 + 0.22j, 0.59 - 0.5j, 0.03 + 0.22j)


def cnum(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def write_matrix(path, M):
    path.write_text(json.dumps({"rows": [[cnum(z) for z in row] for row in np.atleast_2d(M)]}))
    return str(path)


def write_data(path, nodes, targets):
    path.write_text(json.dumps({
        "nodes": [{"s": cnum(s), "p": cnum(p)} for s, p in nodes],
        "targets": [cnum(w) for w in targets],
    }))
    return str(path)


@pytest.fixture
def jordan_matrix(tmp_path):
    return write_matrix(tmp_path / "F.json", np.array([[0.5, 1], [0, 0.5]]))


@pytest.fixture
def royal_matrix(tmp_path):
    return write_matrix(tmp_path / "royal.json", np.array([[0, 2], [0, 0]]))


@pytest.fixture
def zero_matrix(tmp_path):
    return write_matrix(tmp_path / "zero.json", np.zeros((2, 2)))


class TestClassify:
    def test_jordan_halves_classified(self, jordan_matrix, capsys):
        assert main(["classify", "--input", jordan_matrix]) == 0
        out = capsys.readouterr().out
        assert "distinguished: True" in out
        assert "strict PASS" in out

    def test_identity_not_distinguished(self, tmp_path, capsys):
        f = write_matrix(tmp_path / "I.json", np.eye(2))
        assert main(["classify", "--input", f]) == 0
        out = capsys.readouterr().out
        assert "distinguished: False" in out
        assert "witnesses" in out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_grid_exit_2(self, jordan_matrix, capsys, n):
        assert main(["classify", "--input", jordan_matrix, "--grid-radius", "0.5",
                     "--grid-n", n]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_peak_between_scan_angles_exit_2(self, tmp_path, capsys):
        # nu = 1.00002 at an angle halfway between two of the 257 scan angles
        f = write_matrix(tmp_path / "m.json",
                         np.diag([1.0, (1 + 2e-5) * np.exp(1j * 100.5 * 2 * np.pi / 257)]))
        assert main(["classify", "--input", f, "--tol-n-theta=257"]) == 2
        assert "not a numerical contraction: nu = 1.000020000000" in capsys.readouterr().err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("rows, why", [
        ([[cnum(1)], []], "ragged rows"),
        ([[cnum(1), cnum(0)], [cnum(0)]], "ragged rows"),
        ([[cnum(1)], 2], "each row must be a list of the same length"),
        ([[{"re": "one"}]], "expected a complex scalar"),
    ])
    def test_malformed_rows_exit_2(self, tmp_path, capsys, rows, why):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": rows}))
        assert main(["classify", "--input", str(f)]) == 2
        assert why in capsys.readouterr().err

    def test_json_report(self, jordan_matrix, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["classify", "--input", jordan_matrix, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["distinguished"] is True
        assert report["strict_pass"] is True


class TestPick:
    def test_unique_datum_szego_strictly_psd(self, tmp_path, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (1, 0.25)], [0, 0.5])
        assert main(["pick", "--input", data, "--kernel", "szego"]) == 0
        out = capsys.readouterr().out
        assert "positive semidefinite: True" in out
        assert "active: no null vector" in out
        assert "PASS" in out

    def test_sheet_datum_model_kernel_active(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (0, 0.5)], [0, 0.5])
        code = main(["pick", "--input", data, "--kernel", f"model:{zero_matrix}"])
        out = capsys.readouterr().out
        assert code == 0
        assert "active: gamma" in out

    def test_audit_line_reports_closed_form_residuals(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (0, 0.5)], [0, 0.5])
        assert main(["pick", "--input", data, "--kernel", f"model:{zero_matrix}"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("  isometry defect = ")
        assert "  intertwining = " in line and "  commutator = " in line
        assert "tail bound" not in line

    def test_out_keeps_every_audit_field(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (0, 0.5)], [0, 0.5])
        out = tmp_path / "pick.json"
        assert main(["pick", "--input", data, "--kernel", f"model:{zero_matrix}",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())["admissibility"]
        fields = [f.name for f in dataclasses.fields(AdmissibilityReport)]
        assert list(report) == fields
        assert all(isinstance(report[name], float) for name in
                   ("fundamental_residual", "intertwine_s", "commutator"))

    def test_close_sheet_nodes_pass(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, p) for p in CLOSE_SHEET_P], CLOSE_SHEET_P)
        assert main(["pick", "--input", data, "--kernel", f"model:{zero_matrix}"]) == 0
        assert "admissibility audit: PASS" in capsys.readouterr().out

    def test_large_szego_entry_not_active(self, tmp_path, capsys):
        # eigenvalues 0.76 and 1e9: not active, whatever the size of an entry
        data = write_data(tmp_path / "d.json", [(0.9999999995, 0), (0.1, 0)], [0, 0.5])
        assert main(["pick", "--input", data, "--kernel", "szego", "--tol-mod=1e-12"]) == 0
        out = capsys.readouterr().out
        assert "min eigenvalue: 7.5757575" in out
        assert "active: no null vector at tolerance" in out

    def test_nearly_unimodular_target_active(self, tmp_path, capsys):
        # Pick matrix 1 - |w|^2, about 2e-15: active, though tiny
        data = write_data(tmp_path / "d.json", [(0, 0)], [0.999999999999999])
        assert main(["pick", "--input", data, "--kernel", "szego"]) == 0
        assert "active: gamma = (1+0j)" in capsys.readouterr().out

    def test_node_outside_domain_exit_2(self, tmp_path):
        data = write_data(tmp_path / "d.json", [(2, 1)], [0])
        assert main(["pick", "--input", data, "--kernel", "szego"]) == 2

    def test_unknown_kernel_exit_2(self, tmp_path):
        data = write_data(tmp_path / "d.json", [(0, 0)], [0])
        assert main(["pick", "--input", data, "--kernel", "mystery"]) == 2

    @pytest.mark.parametrize("datum", [{"nodes": 5, "targets": []},
                                       {"nodes": [{"s": 0, "p": 0}], "targets": 0}],
                             ids=["nodes", "targets"])
    def test_non_list_nodes_or_targets_exit_2(self, tmp_path, capsys, datum):
        f = tmp_path / "d.json"
        f.write_text(json.dumps(datum))
        assert main(["pick", "--input", str(f), "--kernel", "szego"]) == 2
        assert "'nodes' and 'targets' must be lists" in capsys.readouterr().err

    @pytest.mark.parametrize("datum", ["royal", "sheet"])
    def test_golden_pick_output(self, tmp_path, capsys, datum):
        # the printed Gram matrix, Pick matrix and gamma, and the --out report
        out = tmp_path / "pick.json"
        assert main(["pick", "--input", str(DATA / f"datum_{datum}.json"),
                     "--kernel", f"model:{DATA / f'{datum}_pencil.json'}",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"pick_{datum}.stdout").read_text()
        assert out.read_text() == (GOLDEN / f"pick_{datum}.json").read_text()


class TestTrace:
    def test_sheet_datum_rows(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (0, 0.5)], [0, 0.5])
        out = tmp_path / "trace.csv"
        code = main(["trace", "--input", data, "--kernel", f"model:{zero_matrix}",
                     "--grid-radius", "0.8", "--grid-n", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_s,im_s,re_p,im_p,re_w,im_w,residual,sheet_flag"
        for line in lines[1:]:
            re_s, im_s, re_p, im_p, re_w, im_w, resid, flag = line.split(",")
            assert abs(float(re_s)) < 1e-10 and abs(float(im_s)) < 1e-10
            assert abs(complex(float(re_w), float(im_w))
                       - complex(float(re_p), float(im_p))) < 1e-8
            assert int(flag) == 1

    def test_close_sheet_nodes_rows(self, tmp_path, zero_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, p) for p in CLOSE_SHEET_P], CLOSE_SHEET_P)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--input", data, "--kernel", f"model:{zero_matrix}",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (200, 8)
        w = rows[:, 4] + 1j * rows[:, 5]
        p = rows[:, 2] + 1j * rows[:, 3]
        assert np.abs(w - p).max() <= 1e-12
        assert np.all(rows[:, 7] == 1)

    def test_royal_datum_rows(self, tmp_path, royal_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (1, 0.25)], [0, -0.5])
        out = tmp_path / "trace.csv"
        code = main(["trace", "--input", data, "--kernel", f"model:{royal_matrix}",
                     "--grid-radius", "0.49", "--grid-n", "6", "--out", str(out)])
        assert code == 0
        for line in out.read_text().strip().splitlines()[1:]:
            vals = [float(v) for v in line.split(",")]
            s = complex(vals[0], vals[1])
            p = complex(vals[2], vals[3])
            w = complex(vals[4], vals[5])
            assert abs(s * s - 4 * p) < 1e-8
            assert abs(w + s / 2) < 1e-8

    def test_one_stacked_eig_per_trace(self, monkeypatch, capsys):
        # branch_trace decomposes the base and path pencils of every node in
        # one stacked eig and reads every projection from it: no per-pencil
        # spectrum, no contour
        import symdisk.cli as cli
        import symdisk.extend as extend
        import symdisk.linalg as linalg
        eig, branch_trace = np.linalg.eig, cli.branch_trace
        counts = {"eig": 0, "spectrum": 0, "spectral_projection": 0}
        traces = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if traces:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def flagged_branch_trace(*args, **kwargs):
            traces.append(True)
            try:
                return branch_trace(*args, **kwargs)
            finally:
                traces.pop()

        monkeypatch.setattr(np.linalg, "eig", counted("eig", eig))
        for module in (linalg, extend):
            for name in ("spectrum", "spectral_projection"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(cli, "branch_trace", flagged_branch_trace)
        assert main(["trace", "--input", str(DATA / "datum_royal.json"),
                     "--kernel", f"model:{DATA / 'royal_pencil.json'}",
                     "--grid-n", "64"]) == 0
        # one eig for both nodes of the 2-node datum
        assert counts == {"eig": 1, "spectrum": 0, "spectral_projection": 0}

    def test_royal_origin_node_datum(self, tmp_path, capsys):
        # three royal nodes, one of them at the branch point z = 0: the trace
        # used to fail there with "projection not idempotent", and the
        # trapezoid contour still did from --tol-proj=1e-12
        zs = (0, 0.3 + 0.2j, -0.4 + 0.1j)
        data = write_data(tmp_path / "d.json", [(2 * z, z * z) for z in zs], [-z for z in zs])
        out = tmp_path / "trace.csv"
        for tol_flags in ([], ["--tol-proj=1e-12"], ["--tol-proj=1e-13"]):
            assert main(["trace", "--input", data, "--kernel",
                         f"model:{DATA / 'royal_pencil.json'}", "--out", str(out),
                         *tol_flags]) == 0
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            s = rows[:, 0] + 1j * rows[:, 1]
            w = rows[:, 4] + 1j * rows[:, 5]
            # the sheet s = 0 of the 3x3 extension block is not reached by the data
            royal = (rows[:, 7] == 1) & (np.abs(s) > 1e-12)
            assert royal.sum() > 0
            assert np.abs(w[royal] + s[royal] / 2).max() <= 1e-12

    def test_one_stacked_kernel_vector_call(self, monkeypatch, capsys):
        # the whole grid takes its kernel vectors and residuals from one stacked
        # SVD; the model kernel's Gram matrix takes one over the 2 nodes
        import symdisk.extend as extend
        import symdisk.kernels as kernels
        stacked = kernels.unit_kernel_vector
        sizes = []

        def counting(V, s, p, *args, **kwargs):
            sizes.append(np.size(s))
            return stacked(V, s, p, *args, **kwargs)

        monkeypatch.setattr(kernels, "unit_kernel_vector", counting)
        monkeypatch.setattr(extend, "unit_kernel_vector", counting)
        assert main(["trace", "--input", str(DATA / "datum_royal.json"),
                     "--kernel", f"model:{DATA / 'royal_pencil.json'}",
                     "--grid-n", "64"]) == 0
        assert sorted(sizes) == [2, 64 * 2]

    def test_off_variety_grid_point_exit_2(self, tmp_path, capsys):
        # with tol_memb the smallest positive double (0 is not a valid tolerance)
        # every point of positive residual is off the variety; the error names
        # the first of them in row order
        argv = ["trace", "--input", str(DATA / "datum_royal.json"),
                "--kernel", f"model:{DATA / 'royal_pencil.json'}", "--grid-n", "8"]
        out = tmp_path / "trace.csv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        first = rows[np.flatnonzero(rows[:, 6] > 0)[0]]
        capsys.readouterr()
        assert main(argv + ["--tol-memb=5e-324"]) == 2
        point = f"({complex(first[0], first[1])}, {complex(first[2], first[3])})"
        assert f"point {point} is off the variety" in capsys.readouterr().err

    def test_nonextremal_datum_exit_4(self, tmp_path, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (1, 0.25)], [0, 0.5])
        assert main(["trace", "--input", data, "--kernel", "szego"]) == 4

    def test_empty_grid_exit_2(self, capsys):
        assert main(["trace", "--input", str(DATA / "datum_royal.json"), "--kernel",
                     f"model:{DATA / 'royal_pencil.json'}", "--grid-n", "0"]) == 2
        assert "re_s" not in capsys.readouterr().out

    @pytest.mark.parametrize("datum", ["royal", "sheet"])
    def test_golden_output(self, tmp_path, capsys, datum):
        argv = ["trace", "--input", str(DATA / f"datum_{datum}.json"),
                "--kernel", f"model:{DATA / f'{datum}_pencil.json'}", "--grid-n", "64"]
        assert main(argv) == 0
        stdout = (GOLDEN / f"trace_{datum}_grid64.stdout").read_text()
        assert capsys.readouterr().out == stdout
        out = tmp_path / "trace.csv"
        assert main(argv + ["--out", str(out)]) == 0
        csv = (GOLDEN / f"trace_{datum}_grid64.csv").read_text()
        assert out.read_text() == csv
        node_lines = stdout[:len(stdout) - len(csv)]
        assert capsys.readouterr().out == node_lines + f"wrote 128 rows to {out}\n"

    def test_later_node_error_keeps_earlier_lines(self, tmp_path, capsys):
        # the royal datum with its nodes swapped: at --tol-dist-guard=0.9 the
        # node at the branch point (now node 1) finds no admissible contour,
        # and node 0's line is printed before the error
        data = write_data(tmp_path / "d.json", [(1, 0.25), (0, 0)], [-0.5, 0])
        assert main(["trace", "--input", data, "--kernel",
                     f"model:{DATA / 'royal_pencil.json'}", "--grid-n", "4",
                     "--tol-dist-guard=0.9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ("extension block dimension: 2\n"
                                "node 0: 1 branch(es), final alpha error 3.815e-08, "
                                "final sum error 1.907e-08, contour radius 1.000e+00\n")
        assert captured.err == ("numerical error: no admissible contour around -0j "
                                "at z = (0.01+0j)\n")

    def test_nu_of_the_extension_block_taken_from_the_audit(self, monkeypatch, capsys):
        # one numerical radius for the kernel's pencil and one for F' in the
        # admissibility audit; the c.n.u. block is F' itself, so its variety
        # reuses the audit's value
        import symdisk.numrange as numrange
        radii = numrange.numerical_radii
        calls = []

        def counted(Fs, *args, **kwargs):
            calls.append(len(Fs))
            return radii(Fs, *args, **kwargs)

        monkeypatch.setattr(numrange, "numerical_radii", counted)
        assert main(["trace", "--input", str(DATA / "datum_royal.json"),
                     "--kernel", f"model:{DATA / 'royal_pencil.json'}"]) == 0
        assert calls == [1, 1]

    def test_byte_identical_reruns(self, tmp_path, royal_matrix, capsys):
        data = write_data(tmp_path / "d.json", [(0, 0), (1, 0.25)], [0, -0.5])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["trace", "--input", data, "--kernel",
                         f"model:{royal_matrix}", "--grid-n", "7",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestRealize:
    def test_mobius_model(self, tmp_path, capsys):
        one = [[cnum(1)]]
        zero = [[cnum(0)]]
        model = {"tau": {"rows": one}, "A": {"rows": zero}, "B": {"rows": one},
                 "C": {"rows": one}, "D": {"rows": zero}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model))
        assert main(["realize", "--input", str(f), "--grid-n", "16"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_grid_exit_2(self, capsys, n):
        assert main(["realize", "--input", str(DATA / "mobius_model.json"),
                     "--grid-n", n]) == 2
        assert "PASS" not in capsys.readouterr().out

    def test_non_unitary_model_exit_2(self, tmp_path):
        one = [[cnum(1)]]
        model = {"tau": {"rows": one}, "A": {"rows": one}, "B": {"rows": one},
                 "C": {"rows": one}, "D": {"rows": one}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model))
        assert main(["realize", "--input", str(f)]) == 2

    def test_ragged_block_exit_2(self, tmp_path, capsys):
        one = [[cnum(1)]]
        zero = [[cnum(0)]]
        model = {"tau": {"rows": one}, "A": {"rows": zero}, "B": {"rows": one},
                 "C": {"rows": [[cnum(1), cnum(0)], [cnum(0)]]}, "D": {"rows": zero}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model))
        assert main(["realize", "--input", str(f)]) == 2
        assert "block 'C': ragged rows" in capsys.readouterr().err

    def test_overflowing_model_not_passed(self, tmp_path, capsys):
        # A* A overflows to nan, which no unitarity or defect check may pass
        one = [[cnum(1)]]
        zero = [[cnum(0)]]
        model = {"tau": {"rows": one}, "A": {"rows": [[cnum(1e200 + 1e200j)]]},
                 "B": {"rows": zero}, "C": {"rows": zero}, "D": {"rows": zero}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["realize", "--input", str(f), "--grid-n", "8"]) != 0
        assert "PASS" not in capsys.readouterr().out


def _csv_per_value(header, rows) -> str:
    """The CSV writer the one-format-string writer replaced: one format per value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestCsvAndParser:
    def test_csv_matches_per_value_formatter(self):
        from symdisk.cli import _csv
        header = ["a", "b", "c", "flag"]
        specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1,
                    -1.2345678901234567e-300, 1.7976931348623157e308, 1 / 3]
        rows = [(x, y, -x, i) for i, (x, y) in enumerate(zip(specials, specials[::-1]))]
        rows += [(np.float64(0.7), 2.0, np.float64(-0.0), -1)]
        assert _csv(header, rows) == _csv_per_value(header, rows)
        assert _csv(header, []) == _csv_per_value(header, []) == "a,b,c,flag\n"

    def test_failed_parse_then_valid_command(self, jordan_matrix, capsys):
        assert main(["classify", "--input", jordan_matrix]) == 0
        expected = capsys.readouterr()
        assert main(["classify", "--input", jordan_matrix, "--grid-n", "many"]) == 2
        assert "invalid _grid_n value" in capsys.readouterr().err
        assert main(["classify", "--input", jordan_matrix]) == 0
        assert capsys.readouterr() == expected

    def test_appended_grid_radius_does_not_leak(self, jordan_matrix, capsys):
        assert main(["classify", "--input", jordan_matrix]) == 0
        default = capsys.readouterr().out
        assert main(["classify", "--input", jordan_matrix, "--grid-radius", "0.5",
                     "--grid-radius", "0.9", "--grid-n", "4"]) == 0
        assert capsys.readouterr().out != default
        assert main(["classify", "--input", jordan_matrix]) == 0
        assert capsys.readouterr().out == default
        assert main(["classify", "--input", jordan_matrix, "--grid-radius", "0.5",
                     "--grid-n", "4"]) == 0
        assert "{'open_G': 8, " in capsys.readouterr().out


class TestTolOverridesAndThreads:
    def test_unknown_tolerance_rejected(self, jordan_matrix):
        assert main(["classify", "--input", jordan_matrix, "--tol-bogus=1e-3"]) == 2
        # n_quad, the trapezoid node floor, went with the contour quadrature
        assert main(["classify", "--input", jordan_matrix, "--tol-n-quad=64"]) == 2

    def test_tolerance_override_applies(self, tmp_path, capsys):
        # an absurd tol_active makes a strictly PSD Pick matrix "active"
        data = write_data(tmp_path / "d.json", [(0, 0), (1, 0.25)], [0, 0.5])
        assert main(["pick", "--input", data, "--kernel", "szego",
                     "--tol-active=1.0"]) == 0
        assert "active: gamma" in capsys.readouterr().out

    def test_tol_nu_override_reaches_pencil_variety(self, tmp_path, capsys):
        # nu = 1.000001 is accepted at --tol-nu=1e-3 by every layer, the
        # pencil variety included; --tol-mod=1e-5 makes 1.000001 a witness
        f = write_matrix(tmp_path / "m.json", np.diag([1.000001, 0.2]))
        assert main(["classify", "--input", f]) == 2
        assert main(["classify", "--input", f, "--tol-nu=1e-3", "--tol-mod=1e-5"]) == 0
        out = capsys.readouterr().out
        assert "nu(F) = 1.000001000000" in out
        assert "unimodular witnesses: 1.000001+0j" in out

    def test_tol_mod_override_reaches_pick_data(self, tmp_path, capsys):
        # s = 1 - 5e-10 is inside the default boundary band of 1e-9, so node 0
        # counts as a boundary point unless --tol-mod reaches the datum
        data = write_data(tmp_path / "d.json", [(0.9999999995, 0), (0.1, 0)], [0, 0.5])
        assert main(["pick", "--input", data, "--kernel", "szego"]) == 2
        assert "not in the open domain" in capsys.readouterr().err
        assert main(["pick", "--input", data, "--kernel", "szego",
                     "--tol-mod=1e-12"]) in (0, 4)
        assert "not in the open domain" not in capsys.readouterr().err

    def test_every_tolerance_field_reachable(self, royal_matrix):
        # knobs without the tol_ prefix are reached by their own name
        assert main(["classify", "--input", royal_matrix, "--tol-n-theta=33",
                     "--tol-dist-guard=0.2", "--tol-rank=1e-12"]) == 0

    @pytest.mark.parametrize("flag", ["--tol-n-theta=0", "--tol-nu=nan", "--tol-nu=inf",
                                      "--tol-mod=-1", "--tol-dist-guard=1"])
    def test_bad_tolerance_value_exit_2(self, royal_matrix, capsys, flag):
        assert main(["classify", "--input", royal_matrix, flag]) == 2
        assert "bad tolerance value" in capsys.readouterr().err

    def test_zero_trace_steps_exit_2(self, capsys):
        assert main(["trace", "--input", str(DATA / "datum_royal.json"), "--kernel",
                     f"model:{DATA / 'royal_pencil.json'}", "--tol-n-steps=0"]) == 2
        assert "bad tolerance value: n_steps" in capsys.readouterr().err

    def test_tolerance_value_parsed_with_field_type(self, royal_matrix, capsys):
        from symdisk.cli import _extract_tolerance_flags
        rest, overrides = _extract_tolerance_flags(["--tol-n-theta=33", "--tol-mod=1e-8"])
        assert overrides == {"n_theta": 33, "tol_mod": 1e-8}
        assert type(overrides["n_theta"]) is int
        assert main(["classify", "--input", royal_matrix, "--tol-n-theta=3.5"]) == 2
        assert "bad tolerance value" in capsys.readouterr().err


def test_verify_runs_sweeps(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "equivalence sweep" in text and "PASS" in text
    report = json.loads(out.read_text())
    assert report["equivalence"]["failures"] == 0
    assert report["pu_family"]["failures"] == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1"],
    ["realize", "--input", str(DATA / "mobius_model.json"), "--seed", "-3"],
])
def test_negative_seed_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--input", str(DATA / "royal_pencil.json")],
    ["pick", "--input", str(DATA / "datum_royal.json"), "--kernel", "szego"],
    ["trace", "--input", str(DATA / "datum_royal.json"),
     "--kernel", f"model:{DATA / 'royal_pencil.json'}"],
])
def test_seed_only_where_it_is_read(argv, capsys):
    # only realize and verify draw random numbers
    assert main(argv + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    f = tmp_path / "F.json"
    f.write_text(json.dumps({"rows": [[cnum(0.5), cnum(1)], [cnum(0), cnum(0.5)]]}))
    # the child process imports symdisk from where this process found it
    src = str(Path(symdisk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "symdisk", "classify",
                           "--input", str(f)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "distinguished: True" in proc.stdout
