package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports in testdata")

// TestReportsMatchGolden regenerates every registered experiment at
// tinyOpts and requires its rendered report to equal
// testdata/<id>.golden byte for byte, with measured cells masked. The
// shape tests check columns and ranges; this pins every value, so a
// change to the estimators, the answer assembly, the trial loops or the
// multi-proxy path that moves any reported number shows here. Rewrite
// the goldens with -update only for a change meant to move them.
func TestReportsMatchGolden(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			if e.ID == "table5" {
				// The "SUPG sampling" column prices measured wall time.
				for _, row := range rep.Table.Rows {
					row[1] = "<measured>"
				}
			}
			got := rep.String()
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("report differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
