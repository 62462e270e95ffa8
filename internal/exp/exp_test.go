package exp

import (
	"strings"
	"testing"
)

// tinyScale keeps harness tests fast: few queries, quick sizes.
func tinyScale() Scale { return Scale{Queries: 3, Seed: 99} }

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("registered %d experiments, want 16 (2 tables + 10 figures + hub substrate + budget + planner + shard)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil || e.Paper == "" {
			t.Fatalf("experiment %q incomplete", e.Name)
		}
	}
	if _, ok := Find("fig17"); !ok {
		t.Fatal("Find(fig17) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

func TestMeasureTotalAppliesCostModel(t *testing.T) {
	m := Measure{IO: 100, CPU: 0.5}
	if got := m.Total(); got != 0.5+100*IOCostSeconds {
		t.Fatalf("Total = %v", got)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID: "Fig X", Title: "demo", XLabel: "density",
		Xs:      []string{"0.01", "0.02"},
		Columns: []Algo{AlgoEager, AlgoLazy},
		Cells: [][]Measure{
			{{IO: 10, CPU: 0.1}, {IO: 20, CPU: 0.05}},
			{{IO: 5, CPU: 0.2}, {IO: 9, CPU: 0.01}},
		},
	}
	out := tab.Format()
	for _, want := range []string{"Fig X", "density", "0.02", "E (", "L ("} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
	if got := tab.Cells[0][1].Total(); got != 20*IOCostSeconds+0.05 {
		t.Fatalf("Total = %v", got)
	}
}

// TestTableFormatGolden pins the exact rendered bytes: table rows render
// in the slice order the experiment fixed, never in map-iteration order,
// so the same Table must always produce the same output.
func TestTableFormatGolden(t *testing.T) {
	tab := &Table{
		ID: "Fig X", Title: "demo", XLabel: "density",
		Xs:      []string{"0.01", "0.02"},
		Columns: []Algo{AlgoEager, AlgoLazy},
		Cells: [][]Measure{
			{{IO: 10, CPU: 0.1}, {IO: 20, CPU: 0.05}},
			{{IO: 5, CPU: 0.2}, {IO: 9, CPU: 0.01}},
		},
		Notes: []string{"note line"},
	}
	want := "Fig X — demo\n" +
		"density      |  E (IO / CPUs / total) |  L (IO / CPUs / total)\n" +
		"--------------------------------------------------------------\n" +
		"0.01         |    10.0  0.100    0.20 |    20.0  0.050    0.25\n" +
		"0.02         |     5.0  0.200    0.25 |     9.0  0.010    0.10\n" +
		"  note line\n"
	if got := tab.Format(); got != want {
		t.Fatalf("Format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTable1Smoke runs the DBLP ad-hoc experiment end to end at reduced
// query count (the graph itself is paper-scale, it is small).
func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke tests skipped in -short")
	}
	tab, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Xs) != 3 || len(tab.Cells) != 3 {
		t.Fatalf("Table1 rows = %d, want 3 predicates", len(tab.Xs))
	}
	for i, row := range tab.Cells {
		for j, m := range row {
			if m.IO == 0 {
				t.Fatalf("row %d col %d has zero I/O (cold queries must fault)", i, j)
			}
		}
	}
}

// experiments that are cheap enough to smoke-test at tiny scale by
// shrinking through their quick defaults.
func TestHarnessSmokeSmallExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke tests skipped in -short")
	}
	// A bespoke small BRITE run via the internal env helpers.
	e, err := briteEnv(5, 2000, 0.02, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.buildHubLabel(2); err != nil {
		t.Fatal(err)
	}
	queries := e.nodePts.Points()[:4]
	row, err := e.restrictedRow(queries, 2, AllSubstrates, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 5 {
		t.Fatalf("row has %d entries", len(row))
	}
	// Results must agree across algorithms (same workload, same k) — the
	// hub-label column included.
	for i := 1; i < len(row); i++ {
		if row[i].Results != row[0].Results {
			t.Fatalf("algorithms disagree on result counts: %v", row)
		}
	}
	// SF-like unrestricted row.
	se, err := sfEnv(6, 2500, 0.02, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	squeries := se.edgePts.Points()[:4]
	srow, err := se.unrestrictedRow(squeries, 1, AllAlgos)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(srow); i++ {
		if srow[i].Results != srow[0].Results {
			t.Fatalf("unrestricted algorithms disagree: %v", srow)
		}
	}
	// Updates on the same env.
	rng := newRng(7)
	urow, err := se.updateRow(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(urow) != 2 {
		t.Fatalf("updateRow returned %d measures", len(urow))
	}
	if urow[0].IO == 0 && urow[1].IO == 0 {
		t.Fatal("updates performed no I/O")
	}
}
