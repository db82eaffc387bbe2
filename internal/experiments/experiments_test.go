package experiments

import (
	"strconv"
	"strings"
	"testing"

	"supg/internal/randx"
)

// tinyOpts shrinks datasets and trials so every experiment's full code
// path runs in CI while still producing meaningful shapes.
func tinyOpts() Options {
	return Options{Seed: 7, Trials: 8, Scale: 0.01, Parallelism: 4}
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig15",
		"table2", "table3", "table4", "table5",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q for the paper's figure or table not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Error("Find should reject unknown ids")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 100 || o.Scale != 1 || o.Parallelism <= 0 || o.Seed == 0 {
		t.Errorf("defaults %+v", o)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.01}.withDefaults()
	if got := o.scaled(1_000_000); got != 10_000 {
		t.Errorf("scaled(1M) = %d", got)
	}
	if got := o.scaled(50_000); got != 2000 {
		t.Errorf("scaled(50k) should hit the 2000 floor, got %d", got)
	}
	if got := o.scaledBudget(10_000); got != 500 {
		t.Errorf("scaledBudget floor: %d", got)
	}
	full := Options{Scale: 1}.withDefaults()
	if full.scaled(50_000) != 50_000 || full.scaledBudget(1000) != 1000 {
		t.Error("scale 1 should be identity")
	}
}

func TestEvalDatasetsSuite(t *testing.T) {
	o := tinyOpts().withDefaults()
	sets := evalDatasets(o, newTestRand())
	if len(sets) != 6 {
		t.Fatalf("suite has %d datasets, want 6 (Table 2)", len(sets))
	}
	names := []string{"ImageNet", "night-street", "OntoNotes", "TACRED", "Beta(0.01, 1)", "Beta(0.01, 2)"}
	for i, ed := range sets {
		if ed.d.Name() != names[i] {
			t.Errorf("dataset %d is %q, want %q", i, ed.d.Name(), names[i])
		}
		if ed.budget <= 0 {
			t.Errorf("%s has budget %d", ed.d.Name(), ed.budget)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	rep, err := runFig1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 2 {
		t.Fatalf("fig1 rows %d", len(rep.Table.Rows))
	}
	naiveFail := parsePct(t, rep.Table.Rows[0][1])
	supgFail := parsePct(t, rep.Table.Rows[1][1])
	if supgFail > naiveFail+1e-9 && supgFail > 0.25 {
		t.Errorf("SUPG fail rate %v should not exceed naive %v", supgFail, naiveFail)
	}
}

func TestFig5Fig6Shape(t *testing.T) {
	for _, id := range []string{"fig5", "fig6"} {
		exp, _ := Find(id)
		rep, err := exp.Run(tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Table.Rows) != 12 { // 6 datasets x 2 methods
			t.Fatalf("%s rows %d, want 12", id, len(rep.Table.Rows))
		}
		// Aggregate failure rates: SUPG must not fail more than U-NoCI
		// overall (per-dataset noise is fine at tiny scale).
		var naive, supg float64
		for _, row := range rep.Table.Rows {
			f := parsePct(t, row[2])
			if row[1] == "U-NoCI" {
				naive += f
			} else {
				supg += f
			}
		}
		if supg > naive+0.5 {
			t.Errorf("%s: aggregate SUPG failures %v vs naive %v", id, supg, naive)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rep, err := runTable2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 6 {
		t.Fatalf("table2 rows %d", len(rep.Table.Rows))
	}
	for _, row := range rep.Table.Rows {
		n, err := strconv.Atoi(row[3])
		if err != nil || n < 2000 {
			t.Errorf("row %v has bad record count", row)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rep, err := runTable3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 3 {
		t.Fatalf("table3 rows %d, want 3 drift pairs", len(rep.Table.Rows))
	}
}

func TestTable4DriftShape(t *testing.T) {
	rep, err := runTable4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 6 { // 3 pairs x {PT, RT}
		t.Fatalf("table4 rows %d", len(rep.Table.Rows))
	}
	// SUPG's success rate should beat the naive fixed threshold's
	// achieved accuracy on the fog pair's recall row (fog attenuates
	// positive scores, so a frozen threshold must lose recall; the
	// precision row can be vacuously 1 at tiny scale via an empty
	// selection).
	for _, row := range rep.Table.Rows {
		if !strings.Contains(row[0], "fog") || row[1] != "recall" {
			continue
		}
		naive := parsePct(t, row[3])
		success := parsePct(t, row[5])
		if success < 0.5 {
			t.Errorf("SUPG success rate %v under fog too low: %v", success, row)
		}
		if naive >= 0.95 {
			t.Errorf("naive recall %v did not degrade under fog", naive)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rep, err := runTable5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 4 {
		t.Fatalf("table5 rows %d", len(rep.Table.Rows))
	}
	for _, row := range rep.Table.Rows {
		if !strings.HasPrefix(row[1], "$") || !strings.HasPrefix(row[5], "$") {
			t.Errorf("row %v missing dollar formatting", row)
		}
	}
}

func TestFig12ExponentShape(t *testing.T) {
	o := tinyOpts()
	o.Scale = 0.02
	rep, err := runFig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 11 {
		t.Fatalf("fig12 rows %d", len(rep.Table.Rows))
	}
}

func TestFig13CIShape(t *testing.T) {
	rep, err := runFig13(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 7 { // 4 uniform + 3 SUPG variants
		t.Fatalf("fig13 rows %d", len(rep.Table.Rows))
	}
	// Hoeffding should never beat the normal approximation on quality.
	quality := map[string]float64{}
	for _, row := range rep.Table.Rows {
		if row[0] == "SUPG" {
			quality[row[1]] = parsePct(t, row[2])
		}
	}
	if quality["hoeffding"] > quality["normal"]+0.1 {
		t.Errorf("Hoeffding quality %v should not beat normal %v", quality["hoeffding"], quality["normal"])
	}
}

func TestFig15JointShape(t *testing.T) {
	rep, err := runFig15(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 4*2*6 {
		t.Fatalf("fig15 rows %d", len(rep.Table.Rows))
	}
}

func TestAblationDefensive(t *testing.T) {
	rep, err := runAblationDefensive(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 6 {
		t.Fatalf("ablation rows %d", len(rep.Table.Rows))
	}
	// With defensive mixing, the adversarial proxy must keep the
	// guarantee.
	for _, row := range rep.Table.Rows {
		if row[0] == "adversarial" && row[1] == "0.3" {
			if f := parsePct(t, row[2]); f > 0.3 {
				t.Errorf("adversarial mixing=0.3 fail rate %v", f)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	rep, err := runTable2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "table2") || !strings.Contains(s, "dataset") {
		t.Errorf("report rendering:\n%s", s)
	}
}

// parsePct parses the "12.3%" strings the report tables use.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v / 100
}

func newTestRand() *randx.Rand { return randx.New(7) }
