"""Smoke tests for the experiment modules (tiny scales).

Each paper artefact's generator must run end-to-end and produce rows
with the expected columns; density/agreement assertions inside the
modules double as correctness checks on realistic surrogate graphs.
"""

from repro.experiments import (
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13_14,
    fig15_16,
    fig20,
    harness,
    table2,
    table3,
    table4,
    table5,
)

SCALE = 0.08  # tiny surrogates: smoke-test speed over fidelity


class TestHarness:
    def test_timed(self):
        value, seconds = harness.timed(sum, [1, 2, 3])
        assert value == 6
        assert seconds >= 0.0

    def test_format_table(self):
        text = harness.format_table([{"a": 1, "b": 2.5}, {"a": 10}], title="T")
        assert "T" in text and "a" in text and "2.5" in text and "-" in text

    def test_format_empty(self):
        assert "(no rows)" in harness.format_table([])

    def test_truncate_graph(self):
        from repro.graph.generators import erdos_renyi_gnm

        g = erdos_renyi_gnm(50, 100, seed=1)
        t = harness.truncate_graph(g, 10)
        assert t.num_vertices == 10


class TestArtefacts:
    def test_table2(self):
        rows = table2.run(names=["Yeast", "ER"], scale=SCALE)
        assert len(rows) == 2
        assert {"dataset", "n", "m", "kmax", "tri_kmax"} <= set(rows[0])

    def test_fig8_exact(self):
        rows = fig8.run_exact(["Yeast"], h_values=(2, 3), scale=SCALE)
        assert len(rows) == 2
        assert all(r["core_exact_s"] > 0 for r in rows)

    def test_fig8_approx(self):
        rows = fig8.run_approx(["DBLP"], h_values=(2, 3), scale=0.03)
        assert len(rows) == 2
        assert all("core_app_s" in r for r in rows)

    def test_fig9(self):
        rows = fig9.run("Ca-HepTh", h_values=(2, 3), scale=SCALE)
        iters = [r["iteration"] for r in rows if r["h"] == 2]
        assert iters[0] == -1
        # core location must not enlarge the network
        first = next(r for r in rows if r["h"] == 2 and r["iteration"] == 0)
        full = next(r for r in rows if r["h"] == 2 and r["iteration"] == -1)
        assert first["network_nodes"] <= full["network_nodes"]

    def test_fig10(self):
        rows = fig10.run("As-733", h_values=(2,), scale=SCALE)
        assert {"P1_s", "P2_s", "CoreExact_s"} <= set(rows[0])
        assert "P3_s" not in rows[0]  # no bisection resolution to relax

    def test_table3(self):
        rows = table3.run(("As-733",), h_values=(2, 3), scale=SCALE)
        assert "h=2" in rows[0] and rows[0]["h=2"].endswith("%")

    def test_table4(self):
        rows = table4.run(["DBLP"], scale=0.05)
        assert rows[0]["kmax"] > 0

    def test_fig11(self):
        rows = fig11.run(("Netscience",), h_values=(2, 3), scale=0.3)
        for r in rows:
            assert r["core_app_ratio"] <= 1.0 + 1e-9
            assert r["core_app_ratio"] >= r["theoretical"] - 1e-9
            assert r["peel_ratio"] <= 1.0 + 1e-9

    def test_fig12(self):
        rows = fig12.run(("Ca-HepTh",), h_values=(2,), scale=SCALE)
        assert rows[0]["core_exact_s"] > 0

    def test_fig13(self):
        rows = fig13_14.run_exact(("ER",), h_values=(2,), scale=0.05)
        assert rows[0]["speedup"] > 0

    def test_fig14(self):
        rows = fig13_14.run_approx(("SSCA", "ER"), h_values=(2,), scale=0.05)
        coverage = {r["family"]: r["core_coverage"] for r in rows}
        # ER's kmax-core covers far more of the graph than SSCA's
        assert coverage["ER"] > coverage["SSCA"]

    def test_table5(self):
        rows = table5.run(("S-DBLP",), h_values=(2, 3), patterns=("2-star",), scale=0.5)
        row = rows[0]
        assert row["3clique_rho_opt"] >= row["3clique_on_EDS"] - 1e-9
        assert row["2-star_rho_opt"] >= row["2-star_on_EDS"] - 1e-9

    def test_fig15(self):
        rows = fig15_16.run_exact(("As-733",), patterns=("2-star", "diamond"), scale=SCALE)
        assert len(rows) == 2

    def test_fig16(self):
        rows = fig15_16.run_approx(("DBLP",), patterns=("2-star",), scale=0.02)
        assert rows[0]["core_app_s"] > 0

    def test_fig20(self):
        rows = fig20.run(scale=0.02, h_values=(2,))
        assert len(rows) == 3
